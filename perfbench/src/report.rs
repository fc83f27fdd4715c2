//! A flat JSON object: what each harness command prints for `run.py` to
//! read.

#[derive(Default)]
pub struct Report {
    fields: Vec<(String, String)>,
}

fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

impl Report {
    pub fn num(&mut self, key: &str, v: f64) {
        self.fields.push((key.to_string(), number(v)));
    }

    pub fn int(&mut self, key: &str, v: u64) {
        self.fields.push((key.to_string(), v.to_string()));
    }

    pub fn strings(&mut self, key: &str, vs: &[String]) {
        let items: Vec<String> = vs.iter().map(|v| format!("{v:?}")).collect();
        self.fields
            .push((key.to_string(), format!("[{}]", items.join(","))));
    }

    pub fn render(&self) -> String {
        let items: Vec<String> = self
            .fields
            .iter()
            .map(|(k, v)| format!("{k:?}:{v}"))
            .collect();
        format!("{{{}}}", items.join(","))
    }
}
