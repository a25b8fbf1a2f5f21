//! E8 — §3's conference-mode integration: the same manuscript routed
//! through the open journal universe vs. a closed programme committee.

use minaret_core::{EditorConfig, Minaret};

use crate::harness::{EvalContext, ScenarioConfig};
use crate::table::TextTable;

/// Result of experiment E8.
#[derive(Debug)]
pub struct E8Result {
    /// Recommendations in open journal mode.
    pub journal_recommendations: usize,
    /// Recommendations in conference (PC-restricted) mode.
    pub conference_recommendations: usize,
    /// Candidates rejected purely for not being on the PC.
    pub rejected_not_on_pc: usize,
    /// Every conference-mode recommendation is on the PC.
    pub pc_respected: bool,
    /// Rendered report.
    pub report: String,
}

/// Runs the two-mode comparison. The PC is drawn from the journal-mode
/// top list (odd ranks), so the restriction is visible in the output.
pub fn run_e8(scholars: usize) -> E8Result {
    let ctx = EvalContext::build(ScenarioConfig::sized(scholars));
    let sub = ctx.submissions(1, 0xE8).pop().expect("submission");
    let m = ctx.manuscript_for(&sub);
    let open = ctx.minaret.recommend(&m).expect("journal mode succeeds");

    // Build a PC of half the open-mode recommendations (odd ranks).
    let pc: Vec<String> = open
        .recommendations
        .iter()
        .enumerate()
        .filter(|(i, _)| i % 2 == 0)
        .map(|(_, r)| r.name.clone())
        .collect();
    let conference = Minaret::new(
        ctx.registry.clone(),
        ctx.ontology.clone(),
        EditorConfig {
            pc_members: Some(pc.clone()),
            ..Default::default()
        },
    );
    let restricted = conference.recommend(&m).expect("conference mode succeeds");
    // Same name-compatibility rule the PC filter itself applies ("L. Zhou"
    // on the PC list admits candidate "Lei Zhou").
    let pc_parsed: Vec<_> = pc
        .iter()
        .filter_map(|p| minaret_scholarly::name::parse_name(p))
        .collect();
    let pc_respected = restricted.recommendations.iter().all(|r| {
        minaret_scholarly::name::parse_name(&r.name)
            .map(|n| pc_parsed.iter().any(|m| m.compatible(&n)))
            .unwrap_or(false)
    });
    let rejected_not_on_pc = restricted
        .filtered_out
        .iter()
        .filter(|(_, reason)| {
            matches!(
                reason,
                minaret_core::filter::FilterReason::NotOnProgrammeCommittee
            )
        })
        .count();

    let mut table = TextTable::new(&["mode", "recommendations", "filtered out"]);
    table.row(&[
        "journal (open universe)".into(),
        open.recommendations.len().to_string(),
        open.filtered_out.len().to_string(),
    ]);
    table.row(&[
        format!("conference (PC of {})", pc.len()),
        restricted.recommendations.len().to_string(),
        restricted.filtered_out.len().to_string(),
    ]);
    let report = format!(
        "E8  journal vs. conference mode ({scholars} scholars)\n{}\
         candidates rejected for not being on the PC: {rejected_not_on_pc}\n\
         conference recommendations all on the PC: {pc_respected}\n",
        table.render()
    );
    E8Result {
        journal_recommendations: open.recommendations.len(),
        conference_recommendations: restricted.recommendations.len(),
        rejected_not_on_pc,
        pc_respected,
        report,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e8_conference_mode_is_a_strict_restriction() {
        let r = run_e8(250);
        assert!(r.pc_respected, "report:\n{}", r.report);
        assert!(r.conference_recommendations <= r.journal_recommendations);
        assert!(r.rejected_not_on_pc > 0);
    }
}
