//! Seeded generator of large, locally coupled DDDL networks.
//!
//! The network is a row of `properties` properties in blocks of
//! `block` (one object and one subproblem per block). Constraint `i` ties
//! property `i` to two properties at most `window` places further on, so
//! coupling is local and the constraint graph is one chain-like
//! component. A `tight_share` of the constraints is tight enough that
//! binding one argument narrows the others; the rest never narrow.
//! Subproblems alternate between the designers; constraints that span two
//! blocks belong to the root problem, which designer 0 leads.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt::Write as _;

#[derive(Debug)]
pub struct NetworkParams {
    pub properties: usize,
    pub block: usize,
    pub window: usize,
    pub tight_share: f64,
    pub designers: u32,
}

impl NetworkParams {
    pub fn describe(&self) -> String {
        format!(
            "properties={} block={} window={} tight_share={} designers={}",
            self.properties, self.block, self.window, self.tight_share, self.designers
        )
    }
}

/// Every property ranges over `0..=DOMAIN_HI`.
const DOMAIN_HI: f64 = 10.0;

/// The DDDL source of the network for `seed`.
///
/// # Panics
///
/// Panics on parameters that cannot make a network: fewer than three
/// properties, a zero block or window, or no designers.
pub fn generate(params: &NetworkParams, seed: u64) -> String {
    assert!(params.properties >= 3 && params.block >= 1 && params.window >= 2);
    assert!(params.designers >= 1);
    let mut rng = StdRng::seed_from_u64(seed);
    let n = params.properties;
    let blocks = n.div_ceil(params.block);
    let mut out = String::with_capacity(n * 120);
    let _ = writeln!(
        out,
        "// Generated network (seed {seed}): {}",
        params.describe()
    );
    for b in 0..blocks {
        let _ = writeln!(out, "object b{b} {{");
        for i in b * params.block..((b + 1) * params.block).min(n) {
            let _ = writeln!(out, "    property p{i} : interval(0, {DOMAIN_HI});");
        }
        out.push_str("}\n");
    }

    // Constraint i starts at property i; its partners sit within the
    // window after it (clamped at the end of the row).
    let mut block_constraints: Vec<Vec<String>> = vec![Vec::new(); blocks];
    let mut root_constraints = Vec::new();
    for i in 0..n - 2 {
        let reach = params.window.min(n - 1 - i);
        let j = i + rng.gen_range(1..reach);
        let k = i + rng.gen_range(j - i + 1..=reach);
        let tight = rng.gen_bool(params.tight_share);
        let name = format!("c{i}");
        let body = match (tight, rng.gen_range(0..4u32)) {
            // Sum caps: binding one argument caps the other two.
            (true, 0..=2) => {
                let cap = rng.gen_range(10.0..16.0);
                format!("p{i} + p{j} + p{k} <= {cap:.3}")
            }
            // Gaps: binding p{i} raises the floor of p{j}.
            (true, _) => {
                let gap = rng.gen_range(1.0..4.0);
                format!("p{i} - p{j} <= {gap:.3}")
            }
            // Loose constraints hold anywhere in the box.
            (false, 0..=1) => {
                let cap = rng.gen_range(31.0..40.0);
                format!("p{i} + p{j} + p{k} <= {cap:.3}")
            }
            (false, _) => {
                let cap = rng.gen_range(101.0..140.0);
                format!("p{i} * p{j} <= {cap:.3} - p{k}")
            }
        };
        let (oi, ok) = (i / params.block, k / params.block);
        let _ = writeln!(out, "constraint {name}: {}", qualify(&body, params.block));
        if oi == ok {
            block_constraints[oi].push(name);
        } else {
            root_constraints.push(name);
        }
    }

    let _ = writeln!(out, "problem system {{");
    if !root_constraints.is_empty() {
        let _ = writeln!(out, "    constraints: {};", root_constraints.join(", "));
    }
    out.push_str("    designer 0;\n}\n");
    for (b, constraints) in block_constraints.iter().enumerate() {
        let outputs: Vec<String> = (b * params.block..((b + 1) * params.block).min(n))
            .map(|i| format!("b{b}.p{i}"))
            .collect();
        let _ = writeln!(out, "problem block-{b} under system {{");
        let _ = writeln!(out, "    outputs: {};", outputs.join(", "));
        if !constraints.is_empty() {
            let _ = writeln!(out, "    constraints: {};", constraints.join(", "));
        }
        let _ = writeln!(out, "    designer {};\n}}", b as u32 % params.designers);
    }
    out
}

/// Rewrites bare `p{i}` references as `b{i / block}.p{i}` and ends the
/// statement.
fn qualify(body: &str, block: usize) -> String {
    let mut out = String::with_capacity(body.len() + 16);
    for token in body.split(' ') {
        if !out.is_empty() {
            out.push(' ');
        }
        match token
            .strip_prefix('p')
            .and_then(|d| d.parse::<usize>().ok())
        {
            Some(i) => {
                let _ = write!(out, "b{}.p{i}", i / block);
            }
            None => out.push_str(token),
        }
    }
    out.push(';');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> NetworkParams {
        NetworkParams {
            properties: 300,
            block: 50,
            window: 6,
            tight_share: 0.4,
            designers: 2,
        }
    }

    #[test]
    fn same_seed_same_source() {
        assert_eq!(generate(&small(), 3), generate(&small(), 3));
        assert_ne!(generate(&small(), 3), generate(&small(), 4));
    }

    #[test]
    fn generated_source_compiles_with_the_requested_shape() {
        let scenario = adpm_dddl::compile_source(&generate(&small(), 1)).expect("valid DDDL");
        assert_eq!(scenario.network().property_count(), 300);
        assert_eq!(scenario.network().constraint_count(), 298);
        assert_eq!(scenario.designer_count(), 2);
        // `scale-edit`'s repair relies on ids following the coupling order.
        let net = scenario.network();
        for pid in net.property_ids() {
            assert_eq!(net.property(pid).name(), format!("p{}", pid.index()));
        }
    }
}
