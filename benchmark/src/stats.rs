//! Order statistics, FNV-1a, and the small JSON helpers the rest of the
//! benchmark shares.

use secpref_exp::json::Json;

/// Median and quartiles of a sample, computed the way Python's
/// `statistics.quantiles(values, n=4)` does (exclusive method), so the
/// spreads `secbench` prints are the ones the PR driver computes.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Quartiles {
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub n: usize,
}

impl Quartiles {
    pub fn of(values: &[f64]) -> Quartiles {
        let mut v: Vec<f64> = values.to_vec();
        v.sort_by(|a, b| a.partial_cmp(b).expect("metrics are finite"));
        let n = v.len();
        match n {
            0 => Quartiles {
                q1: 0.0,
                median: 0.0,
                q3: 0.0,
                n,
            },
            1 => Quartiles {
                q1: v[0],
                median: v[0],
                q3: v[0],
                n,
            },
            _ => {
                let at = |k: usize| {
                    // Position k*(n+1)/4 on a 1-based scale; the segment
                    // index is clamped to the sample but the fraction is
                    // not, so small samples extrapolate as Python does.
                    let pos = k as f64 * (n as f64 + 1.0) / 4.0;
                    let j = (pos.floor() as usize).clamp(1, n - 1);
                    let frac = pos - j as f64;
                    v[j - 1] + (v[j] - v[j - 1]) * frac
                };
                Quartiles {
                    q1: at(1),
                    median: at(2),
                    q3: at(3),
                    n,
                }
            }
        }
    }

    /// Interquartile range as a share of the median (0 for a zero median).
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1).abs() / self.median.abs()
        }
    }

    pub fn to_json(self) -> Json {
        Json::Obj(vec![
            ("median".into(), Json::Float(self.median)),
            ("q1".into(), Json::Float(self.q1)),
            ("q3".into(), Json::Float(self.q3)),
            ("n".into(), Json::UInt(self.n as u64)),
        ])
    }

    pub fn from_json(j: &Json) -> Option<Quartiles> {
        Some(Quartiles {
            median: j.get("median")?.as_f64()?,
            q1: j.get("q1")?.as_f64()?,
            q3: j.get("q3")?.as_f64()?,
            n: j.get("n")?.as_u64()? as usize,
        })
    }
}

pub fn median(values: &[f64]) -> f64 {
    Quartiles::of(values).median
}

/// Geometric mean of a positive sequence (0.0 when empty).
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = values.iter().map(|v| v.max(f64::MIN_POSITIVE).ln()).sum();
    (log_sum / values.len() as f64).exp()
}

/// FNV-1a 64 of `data` — the digest `pins.json` holds.
pub fn fnv1a64(data: &[u8]) -> u64 {
    secpref_tracestore::fnv::fnv1a64(data, secpref_tracestore::fnv::FNV_OFFSET)
}

/// `part / whole`, 0 when `whole` is 0.
pub fn share(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

pub fn floats(values: &[f64]) -> Json {
    Json::Arr(values.iter().map(|v| Json::Float(*v)).collect())
}

pub fn floats_from(j: Option<&Json>) -> Vec<f64> {
    j.and_then(Json::as_arr)
        .map(|a| a.iter().filter_map(Json::as_f64).collect())
        .unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let q = Quartiles::of(&v);
        assert_eq!((q.q1, q.median, q.q3), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let q = Quartiles::of(&[3.0, 1.0, 2.0]);
        assert_eq!((q.q1, q.median, q.q3), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let q = Quartiles::of(&[1.0, 2.0]);
        assert_eq!((q.q1, q.median, q.q3), (0.75, 1.5, 2.25));
    }

    #[test]
    fn fnv_known_vector() {
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
    }
}
