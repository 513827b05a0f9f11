//! The verdict oracle: each epoch's verdict scored against what the
//! benchmark planted, plus a compact fingerprint for byte-for-byte diffs
//! between runs.

use dcs_core::EpochReport;
use dcs_hash::Fnv1a;

/// Which detection pipeline a plant is meant for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pipeline {
    /// All-1 submatrix in the fused aligned bitmaps.
    Aligned,
    /// Shared content under per-instance prefixes (offset sampling).
    Unaligned,
}

/// What was planted in one epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Plant {
    /// The pipeline expected to fire.
    pub pipeline: Pipeline,
    /// Infected router ids, ascending.
    pub routers: Vec<usize>,
    /// Planted aligned bitmap columns, ascending (aligned plants only).
    pub columns: Vec<usize>,
    /// Planted global group ids (`router · groups + group`), ascending
    /// (unaligned plants only).
    pub groups: Vec<usize>,
}

/// The parts of an [`EpochReport`] the oracle reads.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Verdict {
    /// Aligned pipeline fired.
    pub found: bool,
    /// Routers the aligned pipeline named.
    pub routers: Vec<usize>,
    /// Aligned witness columns.
    pub witness: Vec<usize>,
    /// Unaligned ER test alarmed.
    pub alarm: bool,
    /// Largest test-graph component.
    pub largest_component: usize,
    /// Routers the unaligned pipeline named.
    pub suspected_routers: Vec<usize>,
    /// Groups the unaligned pipeline named.
    pub suspected_groups: Vec<usize>,
}

impl Verdict {
    /// Extracts the verdict fields of a centre report.
    pub fn of(r: &EpochReport) -> Verdict {
        Verdict {
            found: r.aligned.found,
            routers: r.aligned.routers.clone(),
            witness: r.aligned.signature_indices.clone(),
            alarm: r.unaligned.alarm,
            largest_component: r.unaligned.largest_component,
            suspected_routers: r.unaligned.suspected_routers.clone(),
            suspected_groups: r.unaligned.suspected_groups.clone(),
        }
    }

    /// One JSON line identifying the verdict: found, routers, the witness
    /// column count and FNV-1a hash of the witness list, alarm, largest
    /// component and suspected groups. Equal verdicts give equal bytes.
    pub fn fingerprint(&self) -> String {
        let mut h = Fnv1a::new();
        for c in &self.witness {
            h.update(&(*c as u64).to_le_bytes());
        }
        format!(
            "{{\"found\":{},\"routers\":{:?},\"witness_cols\":{},\"witness_fnv\":\"{:016x}\",\
             \"alarm\":{},\"largest_component\":{},\"suspected_groups\":{:?}}}",
            self.found,
            self.routers,
            self.witness.len(),
            h.finish(),
            self.alarm,
            self.largest_component,
            self.suspected_groups,
        )
    }
}

/// One epoch scored against its plant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Score {
    /// Either pipeline fired.
    pub fired: bool,
    /// Clean epoch on which either pipeline fired.
    pub false_alarm: bool,
    /// Planted epoch on which the planted pipeline stayed quiet or named
    /// fewer than half of the infected routers.
    pub miss: bool,
    /// Infected routers the planted pipeline named.
    pub routers_named: usize,
    /// Planted columns among the aligned witnesses.
    pub columns_hit: usize,
    /// Planted groups among the suspected groups.
    pub groups_hit: usize,
}

fn overlap(truth: &[usize], named: &[usize]) -> usize {
    truth.iter().filter(|t| named.contains(t)).count()
}

/// Scores `v` against `plant` (`None` = clean epoch).
pub fn score(plant: Option<&Plant>, v: &Verdict) -> Score {
    let fired = v.found || v.alarm;
    let Some(p) = plant else {
        return Score {
            fired,
            false_alarm: fired,
            ..Score::default()
        };
    };
    let (pipeline_fired, named) = match p.pipeline {
        Pipeline::Aligned => (v.found, &v.routers),
        Pipeline::Unaligned => (v.alarm, &v.suspected_routers),
    };
    let routers_named = overlap(&p.routers, named);
    Score {
        fired,
        false_alarm: false,
        miss: !pipeline_fired || 2 * routers_named < p.routers.len(),
        routers_named,
        columns_hit: overlap(&p.columns, &v.witness),
        groups_hit: overlap(&p.groups, &v.suspected_groups),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn aligned_plant() -> Plant {
        Plant {
            pipeline: Pipeline::Aligned,
            routers: vec![1, 3, 5, 7],
            columns: vec![10, 20, 30],
            groups: vec![],
        }
    }

    #[test]
    fn planted_epoch_detected() {
        let v = Verdict {
            found: true,
            routers: vec![1, 3, 5, 9],
            witness: vec![10, 20, 30, 44],
            ..Verdict::default()
        };
        let s = score(Some(&aligned_plant()), &v);
        assert!(s.fired && !s.miss && !s.false_alarm);
        assert_eq!((s.routers_named, s.columns_hit), (3, 3));
    }

    #[test]
    fn planted_epoch_missed() {
        // Quiet planted pipeline: a miss, even if the other one fired.
        let quiet = Verdict {
            alarm: true,
            suspected_routers: vec![1, 3, 5, 7],
            ..Verdict::default()
        };
        assert!(score(Some(&aligned_plant()), &quiet).miss);
        // Fired, but named only one of four infected routers.
        let narrow = Verdict {
            found: true,
            routers: vec![1, 2, 4, 6],
            ..Verdict::default()
        };
        let s = score(Some(&aligned_plant()), &narrow);
        assert!(s.miss && s.fired);
        // Exactly half is enough.
        let half = Verdict {
            found: true,
            routers: vec![1, 3],
            ..Verdict::default()
        };
        assert!(!score(Some(&aligned_plant()), &half).miss);
    }

    #[test]
    fn unaligned_plant_reads_the_unaligned_pipeline() {
        let p = Plant {
            pipeline: Pipeline::Unaligned,
            routers: vec![0, 1],
            columns: vec![],
            groups: vec![3, 9],
        };
        let v = Verdict {
            alarm: true,
            suspected_routers: vec![0],
            suspected_groups: vec![3, 4],
            ..Verdict::default()
        };
        let s = score(Some(&p), &v);
        assert!(!s.miss);
        assert_eq!(s.groups_hit, 1);
    }

    #[test]
    fn clean_epoch() {
        let quiet = Verdict::default();
        let s = score(None, &quiet);
        assert!(!s.fired && !s.false_alarm && !s.miss);
        let noisy = Verdict {
            found: true,
            routers: vec![0, 1],
            witness: vec![5; 3],
            ..Verdict::default()
        };
        assert!(score(None, &noisy).false_alarm);
        let alarmed = Verdict {
            alarm: true,
            ..Verdict::default()
        };
        assert!(score(None, &alarmed).false_alarm);
    }

    #[test]
    fn fingerprint_is_stable_and_discriminating() {
        let a = Verdict {
            found: true,
            routers: vec![1, 2],
            witness: vec![7, 8, 9],
            largest_component: 12,
            ..Verdict::default()
        };
        let mut b = a.clone();
        assert_eq!(a.fingerprint(), b.fingerprint());
        b.witness[2] = 10;
        assert_ne!(a.fingerprint(), b.fingerprint());
        assert!(a.fingerprint().contains("\"witness_cols\":3"));
    }
}
