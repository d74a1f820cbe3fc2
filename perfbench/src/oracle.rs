//! Answer checking. Every answer the service returns is checked here;
//! each wrong answer counts as one failed call.

use std::collections::HashMap;

use crate::gen::kv_initial;

/// The join index holds `(2i, i)`: an even key `k` maps to `k / 2`, an
/// odd key is absent.
pub fn join_expected(key: u64) -> Option<u64> {
    key.is_multiple_of(2).then_some(key / 2)
}

/// True if every `answers[i]` is the join answer for `keys[i]`.
pub fn join_ok(keys: &[u64], answers: &[Option<u64>]) -> bool {
    keys.len() == answers.len()
        && keys
            .iter()
            .zip(answers)
            .all(|(&k, &a)| a == join_expected(k))
}

/// One KV client's view of the keys it owns. Every key of the domain
/// starts at [`kv_initial`]; the oracle remembers what this client's
/// acknowledged writes left behind (`None` after a remove). Only the
/// owning client writes a key, so the oracle is exact for it.
pub struct KvOracle {
    client: u64,
    clients: u64,
    domain: u64,
    written: HashMap<u64, Option<u64>>,
}

impl KvOracle {
    pub fn new(client: u64, clients: u64, domain: u64) -> Self {
        Self {
            client,
            clients,
            domain,
            written: HashMap::new(),
        }
    }

    pub fn owns(&self, key: u64) -> bool {
        key < self.domain && key % self.clients == self.client
    }

    pub fn expected(&self, key: u64) -> Option<u64> {
        match self.written.get(&key) {
            Some(&v) => v,
            None => (key < self.domain).then(|| kv_initial(key)),
        }
    }

    /// Check a `get` answer.
    pub fn get(&self, key: u64, got: Option<u64>) -> bool {
        got == self.expected(key)
    }

    /// Record an acknowledged write of `val` (`None` = remove) and check
    /// the previous value the service returned for it.
    pub fn write(&mut self, key: u64, val: Option<u64>, prev: Option<u64>) -> bool {
        let ok = prev == self.expected(key);
        self.written.insert(key, val);
        ok
    }

    /// Check a `get_range(lo, hi)` answer: sorted, duplicate-free, in
    /// range, and exactly this client's live keys in `[lo, hi]` among
    /// the rows it owns. Rows of other clients' keys are not checked.
    pub fn range(&self, lo: u64, hi: u64, rows: &[(u64, u64)]) -> bool {
        if !rows.windows(2).all(|w| w[0].0 < w[1].0) {
            return false;
        }
        if rows.iter().any(|&(k, _)| k < lo || k > hi) {
            return false;
        }
        let mut got = rows.iter().filter(|&&(k, _)| self.owns(k));
        let first = lo + (self.client + self.clients - lo % self.clients) % self.clients;
        let last = hi.min(self.domain.saturating_sub(1));
        let mut k = first;
        while k <= last {
            if let Some(v) = self.expected(k) {
                if got.next() != Some(&(k, v)) {
                    return false;
                }
            }
            k += self.clients;
        }
        got.next().is_none()
    }
}

/// Compare a recovered store against the union of the clients' oracles
/// over the whole key domain; returns how many keys disagree (each is
/// at least one lost or corrupted acknowledged write).
pub fn recovered_mismatches(oracles: &[KvOracle], get: impl Fn(u64) -> Option<u64>) -> u64 {
    let domain = oracles.first().map_or(0, |o| o.domain);
    let clients = oracles.len() as u64;
    (0..domain)
        .filter(|&k| get(k) != oracles[(k % clients) as usize].expected(k))
        .count() as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn join_answers_are_checked() {
        assert!(join_ok(&[4, 5], &[Some(2), None]));
        assert!(!join_ok(&[4, 5], &[Some(3), None]), "planted wrong value");
        assert!(!join_ok(&[4, 5], &[Some(2), Some(0)]), "phantom hit");
        assert!(!join_ok(&[4, 5], &[Some(2)]), "missing answer");
    }

    #[test]
    fn kv_oracle_catches_wrong_values() {
        let mut o = KvOracle::new(1, 2, 64);
        assert!(o.get(3, Some(kv_initial(3))));
        assert!(!o.get(3, Some(kv_initial(3) + 1)), "planted wrong value");
        assert!(o.write(3, Some(9), Some(kv_initial(3))));
        assert!(o.get(3, Some(9)));
        assert!(!o.write(3, None, Some(8)), "wrong previous value");
        assert!(o.get(3, None));
        assert!(!o.get(3, Some(9)), "a removed key answered");
        assert!(o.get(99, None), "outside the domain");
    }

    #[test]
    fn kv_oracle_checks_own_range_rows() {
        let mut o = KvOracle::new(0, 2, 16);
        o.write(4, None, Some(kv_initial(4)));
        o.write(6, Some(1), Some(kv_initial(6)));
        let mut rows: Vec<(u64, u64)> = (2..=7)
            .filter(|&k| k != 4)
            .map(|k| (k, if k == 6 { 1 } else { kv_initial(k) }))
            .collect();
        assert!(o.range(2, 7, &rows));
        // Other clients' rows are not checked.
        rows.retain(|&(k, _)| k != 5);
        assert!(o.range(2, 7, &rows));
        let mut wrong = rows.clone();
        wrong.retain(|&(k, _)| k != 6);
        assert!(!o.range(2, 7, &wrong), "lost own row");
        let mut extra = rows.clone();
        extra.push((4, 0));
        extra.sort();
        assert!(!o.range(2, 7, &extra), "removed row returned");
        assert!(!o.range(3, 7, &rows), "row below lo");
        assert!(o.range(14, 300, &[(14, kv_initial(14)), (15, 0)]));
    }

    #[test]
    fn lost_acked_write_is_counted() {
        let mut a = KvOracle::new(0, 2, 8);
        let mut b = KvOracle::new(1, 2, 8);
        a.write(2, Some(20), Some(kv_initial(2)));
        b.write(3, None, Some(kv_initial(3)));
        let state = |lose: Option<u64>| {
            move |k: u64| match k {
                2 if lose != Some(2) => Some(20),
                3 if lose != Some(3) => None,
                _ => Some(kv_initial(k)),
            }
        };
        let oracles = [a, b];
        assert_eq!(recovered_mismatches(&oracles, state(None)), 0);
        assert_eq!(recovered_mismatches(&oracles, state(Some(2))), 1);
        assert_eq!(recovered_mismatches(&oracles, state(Some(3))), 1);
    }
}
