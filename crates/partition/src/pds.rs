//! Perfect difference sets for GraphLab's PDS vertex-cut (§4.4.1).
//!
//! A (M, q, 1)-perfect difference set is a set `S` of `q` residues mod `M`
//! such that every non-zero residue is the difference of exactly one ordered
//! pair from `S`. They exist when `M = p^2 + p + 1` for a prime power `p`
//! (then `q = p + 1`). GraphLab's PDS partitioner requires the machine count
//! to have this form; none of the paper's cluster sizes (16/32/64/128) do,
//! which is why its Auto mode never selects PDS in the study.
//!
//! The construction here is a backtracking search — cluster sizes are tiny
//! (≤ a few hundred machines), so the search is instantaneous.

/// Find a perfect difference set of size `p + 1` modulo `machines`, if
/// `machines = p^2 + p + 1` for some `p >= 2` and a set exists.
pub fn perfect_difference_set(machines: usize) -> Option<Vec<u16>> {
    let p = pds_parameter(machines)?;
    // Sets are known for prime powers only, and the search has shown there is
    // none for any other `p` a machine count reaches; it takes minutes to
    // come back empty-handed at 111 machines (p = 10), so do not start it.
    let factor = (2..=p).find(|f| p % f == 0)?;
    if !(1..32).any(|k| factor.pow(k) == p) {
        return None;
    }
    let m = machines as u16;
    let q = (p + 1) as usize;
    // Canonical normalization: a PDS can always be shifted/ordered to start
    // with 0, 1 (for M > 3 the set must contain two consecutive residues up
    // to shift because difference 1 must be realized).
    let mut set: Vec<u16> = vec![0, 1];
    let mut used = vec![false; machines];
    used[1] = true; // difference 1 (and m-1 via wraparound)
    used[(m - 1) as usize] = true;
    if backtrack(&mut set, &mut used, q, m) {
        Some(set)
    } else {
        None
    }
}

/// If `machines = p^2 + p + 1` for integer `p >= 2`, return `p`.
pub fn pds_parameter(machines: usize) -> Option<u64> {
    if machines < 7 {
        return None;
    }
    let mut p = 2u64;
    loop {
        let m = p * p + p + 1;
        if m as usize == machines {
            return Some(p);
        }
        if m as usize > machines {
            return None;
        }
        p += 1;
    }
}

fn backtrack(set: &mut Vec<u16>, used: &mut [bool], q: usize, m: u16) -> bool {
    if set.len() == q {
        return true;
    }
    let start = set.last().copied().unwrap() + 1;
    for cand in start..m {
        // All differences cand - s and s - cand (mod m) must be fresh, both
        // against previously used differences and among themselves (two
        // existing elements may not produce the same new difference).
        let mut marked: Vec<usize> = Vec::with_capacity(set.len() * 2);
        let mut fresh = true;
        'check: for &s in set.iter() {
            let d1 = (cand - s) as usize;
            let d2 = (m - (cand - s)) as usize % m as usize;
            for d in [d1, d2] {
                if used[d] {
                    fresh = false;
                    break 'check;
                }
                used[d] = true;
                marked.push(d);
            }
        }
        if !fresh {
            for d in marked {
                used[d] = false;
            }
            continue;
        }
        set.push(cand);
        if backtrack(set, used, q, m) {
            return true;
        }
        set.pop();
        for d in marked {
            used[d] = false;
        }
    }
    false
}

/// Verify the defining property: every non-zero residue mod `m` appears
/// exactly once as a difference of distinct elements.
pub fn is_perfect_difference_set(set: &[u16], m: u16) -> bool {
    let mut count = vec![0u32; m as usize];
    for &a in set {
        for &b in set {
            if a != b {
                let d = (a as i32 - b as i32).rem_euclid(m as i32) as usize;
                count[d] += 1;
            }
        }
    }
    count[1..].iter().all(|&c| c == 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parameter_detection() {
        assert_eq!(pds_parameter(7), Some(2));
        assert_eq!(pds_parameter(13), Some(3));
        assert_eq!(pds_parameter(21), Some(4));
        assert_eq!(pds_parameter(31), Some(5));
        assert_eq!(pds_parameter(57), Some(7));
        assert_eq!(pds_parameter(73), Some(8));
        // The paper's cluster sizes never qualify.
        for m in [16, 32, 64, 128] {
            assert_eq!(pds_parameter(m), None, "machines = {m}");
        }
    }

    #[test]
    fn known_small_sets() {
        let s7 = perfect_difference_set(7).unwrap();
        assert_eq!(s7.len(), 3);
        assert!(is_perfect_difference_set(&s7, 7));
        let s13 = perfect_difference_set(13).unwrap();
        assert_eq!(s13.len(), 4);
        assert!(is_perfect_difference_set(&s13, 13));
    }

    #[test]
    fn larger_prime_power_sets() {
        for m in [21usize, 31, 57, 73] {
            let s = perfect_difference_set(m).expect("set should exist");
            assert!(is_perfect_difference_set(&s, m as u16), "m = {m}");
        }
    }

    #[test]
    fn non_qualifying_sizes_yield_none() {
        // 43 and 111 have the right form, for p = 6 and 10.
        for m in [8, 16, 32, 43, 64, 100, 111, 128] {
            assert!(perfect_difference_set(m).is_none(), "m = {m}");
        }
    }

    #[test]
    fn verifier_rejects_bad_sets() {
        assert!(!is_perfect_difference_set(&[0, 1, 2], 7));
    }
}
