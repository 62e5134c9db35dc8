//! Fixture: a float module. Under the workspace config (no exemption) its
//! floats and casts fire; listed in `float_boundary_exempt`, none of the
//! tokens below may produce a finding — this file proves the carve-out works.

pub fn headroom(flow: f64, cap: f64, eps: f64) -> bool {
    flow + eps < cap
}

pub fn from_ratio(num: i64, den: i64) -> f64 {
    num as f64 / den as f64
}
