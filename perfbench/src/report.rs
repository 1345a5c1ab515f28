//! Metric bookkeeping and the run's printed report.

use std::fmt::Write as _;

/// Median of `xs` (0 for an empty slice).
pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 0.5)
}

/// Linearly interpolated percentile `q` in `[0, 1]` (0 when empty).
pub fn percentile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// FNV-1a offset basis: the digest of nothing.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// One FNV-1a step: folds `word` into `hash`. The digests two runs are
/// compared by (request bytes, study inputs, outputs) all use it.
pub fn fnv(hash: u64, word: u64) -> u64 {
    (hash ^ word).wrapping_mul(0x0100_0000_01b3)
}

/// FNV-1a over `bytes`, continuing from `hash`.
pub fn fnv_bytes(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| fnv(h, u64::from(b)))
}

#[derive(Debug, Clone)]
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
    note: String,
}

/// Everything a run reports: end-to-end metrics (untraced runs),
/// per-layer metrics (traced runs) and informational lines.
#[derive(Debug, Default)]
pub struct Metrics {
    end_to_end: Vec<Metric>,
    layers: Vec<Metric>,
    info: Vec<Metric>,
    notes: Vec<String>,
}

impl Metrics {
    pub fn e2e(&mut self, name: &str, value: f64, unit: &'static str) {
        push(&mut self.end_to_end, name, value, unit);
    }

    pub fn layer(&mut self, name: &str, value: f64, unit: &'static str) {
        push(&mut self.layers, name, value, unit);
    }

    /// A per-layer ratio, printed with its base. A zero base (the
    /// layer was not exercised) reads as 0.
    pub fn ratio(&mut self, name: &str, num: f64, den: f64) {
        let value = if den > 0.0 { num / den } else { 0.0 };
        push(&mut self.layers, name, value, "ratio");
        self.base(name, format!("{num} / {den}"));
    }

    /// Attaches the base a per-layer value was computed from.
    pub fn base(&mut self, name: &str, note: String) {
        if let Some(m) = self.layers.iter_mut().find(|m| m.name == name) {
            m.note = note;
        }
    }

    /// A line for people, not part of the JSON result.
    pub fn info(&mut self, name: &str, value: f64, unit: &'static str) {
        push(&mut self.info, name, value, unit);
    }

    /// A free-form line for people.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// The human-readable report followed by the one-line JSON result:
    /// end-to-end metrics untraced, per-layer metrics traced.
    pub fn render(
        &self,
        traced: bool,
        correct: bool,
        attempted: u64,
        failed: u64,
    ) -> Result<String, String> {
        let mut out = String::new();
        let sections: [(&str, &[Metric]); 3] = [
            ("e2e", &self.end_to_end),
            ("layer", &self.layers),
            ("info", &self.info),
        ];
        for (tag, metrics) in sections {
            for m in metrics {
                let _ = write!(out, "{tag:<5} {:<36} {:>16.4} {}", m.name, m.value, m.unit);
                if !m.note.is_empty() {
                    let _ = write!(out, "   ({})", m.note);
                }
                out.push('\n');
            }
        }
        for line in &self.notes {
            let _ = writeln!(out, "note  {line}");
        }
        let chosen = if traced {
            &self.layers
        } else {
            &self.end_to_end
        };
        let mut json = String::new();
        for (i, m) in chosen.iter().enumerate() {
            if !m.value.is_finite() {
                return Err(format!("metric {} is not finite", m.name));
            }
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                json,
                "{sep}\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            );
        }
        let _ = writeln!(
            out,
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{json}}}}}"
        );
        Ok(out)
    }
}

fn push(list: &mut Vec<Metric>, name: &str, value: f64, unit: &'static str) {
    list.push(Metric {
        name: name.to_string(),
        value,
        unit,
        note: String::new(),
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&xs), 2.5);
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 1.0), 4.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn json_result_is_the_last_line_and_carries_the_chosen_section() {
        let mut m = Metrics::default();
        m.e2e("setup_s", 0.25, "s");
        m.layer("eq4.batch_cold_us", 12.5, "us");
        m.ratio("model.tile_hit_ratio", 0.0, 0.0);
        let text = m.render(false, true, 3, 0).unwrap();
        let last = text.lines().last().unwrap();
        assert_eq!(
            last,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
        let traced = m.render(true, true, 3, 0).unwrap();
        assert!(traced
            .lines()
            .last()
            .unwrap()
            .contains("\"model.tile_hit_ratio\": {\"value\": 0.0"));
    }
}
