//! Compositional fact bases: the synthetic "OpenROAD world" and
//! "industrial world".
//!
//! A fact is a (name, question, answer, documentation sentence) tuple in
//! one domain. Facts are generated compositionally from name and action
//! pools so that each world has enough distinct facts for disjoint train /
//! eval splits, while each individual fact stays short enough for a
//! character-level context window.

/// The domain a fact belongs to. The first three are the ChipNeMo
/// multi-choice domains (Figure 7); all five feed the OpenROAD QA category
/// split.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Domain {
    /// EDA script/command usage.
    EdaScripts,
    /// Bug reports and their fixes.
    Bugs,
    /// Circuit cells and their functions.
    Circuits,
    /// VLSI flow stages.
    FlowStages,
    /// GUI, installation, and test actions.
    Gui,
}

impl Domain {
    /// All domains in canonical order.
    #[cfg(test)]
    pub const ALL: [Domain; 5] = [
        Domain::EdaScripts,
        Domain::Bugs,
        Domain::Circuits,
        Domain::FlowStages,
        Domain::Gui,
    ];

    /// The OpenROAD QA category this domain reports under (Table 1).
    #[must_use]
    pub(crate) fn openroad_category(self) -> &'static str {
        match self {
            Domain::EdaScripts | Domain::Circuits => "Functionality",
            Domain::Bugs | Domain::FlowStages => "VLSI Flow",
            Domain::Gui => "GUI & Install & Test",
        }
    }
}

/// One atomic fact about the synthetic world.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fact {
    /// The entity name (command, bug id, cell, stage, or GUI item).
    pub(crate) name: String,
    /// The canonical question about the entity.
    pub(crate) question: String,
    /// The canonical answer (untagged, lowercase).
    pub(crate) answer: String,
    /// The documentation sentence carrying the fact.
    pub(crate) doc: String,
    /// The fact's domain.
    pub(crate) domain: Domain,
}

const COMMAND_NAMES: &[&str] = &[
    "gpl", "dpl", "cts", "grt", "drt", "rsz", "ifp", "tap", "pdn", "mpl", "sta", "psm", "fin",
    "dft", "eco", "lec",
];
const COMMAND_ACTIONS: &[&str] = &[
    "runs global placement",
    "legalizes cell sites",
    "builds the clock tree",
    "routes global nets",
    "routes detail tracks",
    "resizes weak drivers",
    "inits the floorplan",
    "inserts tap cells",
    "builds the power grid",
    "places the macros",
    "checks timing paths",
    "checks ir drop",
    "adds filler cells",
    "inserts scan chains",
    "patches the netlist",
    "checks logic equal",
];

const BUG_NAMES: &[&str] = &[
    "b101", "b102", "b103", "b104", "b105", "b106", "b107", "b108", "b109", "b110", "b111", "b112",
];
const BUG_FIXES: &[&str] = &[
    "fixed by a rerun of cts",
    "fixed by more core margin",
    "fixed by a newer pdk drop",
    "fixed by relaxing the util",
    "fixed by a hold buffer pass",
    "fixed by pin access repair",
    "fixed by a clean rebuild",
    "fixed by a cap on fanout",
    "fixed by swapping the lib",
    "fixed by a site row patch",
    "fixed by an eco reroute",
    "fixed by a wider halo",
];

const CELL_NAMES: &[&str] = &[
    "nand2", "nor3", "aoi21", "oai22", "dffrs", "latq", "mux4", "xor2", "invx8", "bufx4", "clkgt",
    "isow",
];
const CELL_FUNCS: &[&str] = &[
    "drives a two input nand",
    "drives a three input nor",
    "mixes and or invert logic",
    "mixes or and invert logic",
    "keeps state on clock edge",
    "holds data while enabled",
    "selects one of four inputs",
    "computes exclusive or",
    "drives a strong inverter",
    "buffers a heavy net",
    "gates the clock pin",
    "isolates a power domain",
];

const STAGE_NAMES: &[&str] = &[
    "synth", "floor", "place", "ctree", "route", "signoff", "lvs", "drc", "fill", "gds",
];
const STAGE_ROLES: &[&str] = &[
    "maps rtl to gates",
    "shapes the die and rows",
    "spreads cells on rows",
    "balances the clock skew",
    "draws the wire tracks",
    "closes timing and power",
    "matches layout to netlist",
    "checks layout rules",
    "adds dummy metal fill",
    "streams the final layout",
];

const GUI_NAMES: &[&str] = &[
    "timing icon",
    "heat map",
    "find box",
    "layer list",
    "path view",
    "log pane",
    "zoom tool",
    "ruler tool",
    "help menu",
    "test tab",
];
const GUI_ACTIONS: &[&str] = &[
    "opens the timing report",
    "shades cells by density",
    "jumps to a named net",
    "toggles metal layers",
    "walks a timing path",
    "shows the run messages",
    "scales the canvas view",
    "measures a distance",
    "lists install steps",
    "runs the smoke tests",
];

/// Builds the OpenROAD-world fact base: every `(name, action)` pair from
/// the per-domain pools, in deterministic order.
///
/// The documentation sentence (`doc`) is written in terse reference style
/// (`"cmd gpl: runs global placement."`) while the golden answer is the
/// assistant-style sentence (`"the gpl cmd runs global placement"`). The
/// shared core (the action phrase) keeps answers extractive from context,
/// but the surface transformation is something the chip DAFT *learns* —
/// which is exactly why the paper's EDA models outscore the general
/// instruct models on this benchmark.
#[must_use]
pub fn openroad_facts() -> Vec<Fact> {
    let mut facts = Vec::new();
    // Names, actions, domain, then the question / answer / document templates.
    type Pool = (
        &'static [&'static str],
        &'static [&'static str],
        Domain,
        &'static str,
        &'static str,
        &'static str,
    );
    let pools: [Pool; 5] = [
        (
            COMMAND_NAMES,
            COMMAND_ACTIONS,
            Domain::EdaScripts,
            "what does the NAME cmd do?",
            "the NAME cmd ACTION",
            "cmd NAME: ACTION.",
        ),
        (
            BUG_NAMES,
            BUG_FIXES,
            Domain::Bugs,
            "how was bug NAME fixed?",
            "bug NAME was ACTION",
            "bug NAME: ACTION.",
        ),
        (
            CELL_NAMES,
            CELL_FUNCS,
            Domain::Circuits,
            "what does the NAME cell do?",
            "the NAME cell ACTION",
            "cell NAME: ACTION.",
        ),
        (
            STAGE_NAMES,
            STAGE_ROLES,
            Domain::FlowStages,
            "what does the NAME stage do?",
            "the NAME stage ACTION",
            "stage NAME: ACTION.",
        ),
        (
            GUI_NAMES,
            GUI_ACTIONS,
            Domain::Gui,
            "what does the NAME do?",
            "the NAME ACTION",
            "gui NAME: ACTION.",
        ),
    ];
    for (names, actions, domain, q_tpl, a_tpl, d_tpl) in pools {
        for (i, name) in names.iter().enumerate() {
            let action = actions[i % actions.len()];
            let question = q_tpl.replace("NAME", name);
            let answer = a_tpl.replace("NAME", name).replace("ACTION", action);
            let doc = d_tpl.replace("NAME", name).replace("ACTION", action);
            facts.push(Fact {
                name: (*name).to_string(),
                question,
                answer,
                doc,
                domain,
            });
        }
    }
    facts
}

/// Industrial-world categories (paper Table 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IndustrialCategory {
    /// Hardware architecture questions.
    Arch,
    /// Build-process questions.
    Build,
    /// Job-scheduling (LSF) questions.
    Lsf,
    /// Verification/test-generation questions.
    Testgen,
}

impl IndustrialCategory {
    /// All categories in the paper's column order.
    pub const ALL: [IndustrialCategory; 4] = [
        IndustrialCategory::Arch,
        IndustrialCategory::Build,
        IndustrialCategory::Lsf,
        IndustrialCategory::Testgen,
    ];

    /// Column label as printed in Table 2.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            IndustrialCategory::Arch => "ARCH",
            IndustrialCategory::Build => "BUILD",
            IndustrialCategory::Lsf => "LSF",
            IndustrialCategory::Testgen => "TESTGEN",
        }
    }
}

/// One industrial fact (same shape as [`Fact`], different world).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IndustrialFact {
    /// Redacted-style entity name (the paper masks tools as ZZZ etc.).
    pub(crate) name: String,
    /// Canonical question.
    pub question: String,
    /// Canonical answer.
    pub answer: String,
    /// Documentation sentence.
    pub doc: String,
    /// Category.
    pub(crate) category: IndustrialCategory,
    /// A follow-up question about the same entity (for the multi-turn
    /// setting) and its answer.
    pub followup: (String, String),
}

const ARCH_UNITS: &[&str] = &[
    "fetch", "decode", "issue", "alu", "lsu", "rob", "tlb", "l2c", "noc", "pmu",
];
const ARCH_ROLES: &[&str] = &[
    "pulls ops from the icache",
    "cracks ops into uops",
    "picks ready uops per cycle",
    "runs the integer math",
    "moves loads and stores",
    "retires ops in order",
    "maps virtual pages",
    "serves shared cache lines",
    "links the core tiles",
    "counts perf events",
];
const ARCH_EXTRA: &[&str] = &[
    "it is four wide",
    "it is two wide",
    "it is eight wide",
    "it has two lanes",
    "it has four lanes",
    "it holds 96 slots",
    "it holds 64 pages",
    "it holds 2 mb",
    "it is a 2d mesh",
    "it has 8 counters",
];

const BUILD_TOOLS: &[&str] = &[
    "zbld", "zgen", "zpak", "zsync", "zlint", "zsig", "zrun", "zmap", "zdep", "zver",
];
const BUILD_USES: &[&str] = &[
    "use -build plus the target name",
    "use -gen to emit the tree",
    "use -pack to bundle outputs",
    "use -sync to pull sources",
    "use -lint to scan the rtl",
    "use -sign to stamp the drop",
    "use -run to launch the job",
    "use -map to list targets",
    "use -deps to print the graph",
    "use -ver to print the tag",
];
const BUILD_EXTRA: &[&str] = &[
    "add -only to skip deps",
    "add -force to redo all",
    "add -out to set the dir",
    "add -rev to pin a commit",
    "add -fix to auto repair",
    "add -key to pick the key",
    "add -q to queue it",
    "add -all to show hidden",
    "add -flat to flatten it",
    "add -long for full hash",
];

const LSF_CMDS: &[&str] = &[
    "qsub", "qstat", "qdel", "qhold", "qmove", "qpri", "qlim", "qlog", "qres", "qping",
];
const LSF_USES: &[&str] = &[
    "sends a job to the farm",
    "lists the queue state",
    "kills a queued job",
    "parks a job on hold",
    "shifts a job between queues",
    "bumps a job priority",
    "shows the slot limits",
    "tails the job log",
    "books a reserved slot",
    "checks the farm health",
];
const LSF_EXTRA: &[&str] = &[
    "pass -m for more memory",
    "pass -u to filter by user",
    "pass -f to force it",
    "pass -t to set a timer",
    "pass -q to name the queue",
    "pass -n to dry run",
    "pass -g to pick a group",
    "pass -w to watch live",
    "pass -d to set a date",
    "pass -v for verbose",
];

const TEST_KITS: &[&str] = &[
    "tgen", "tseq", "tcov", "trand", "tchk", "tfmt", "tbus", "tirq", "tmem", "tioq",
];
const TEST_USES: &[&str] = &[
    "emits directed stimulus",
    "orders test sequences",
    "merges coverage runs",
    "drives random traffic",
    "scores the checkers",
    "formats the test report",
    "stresses the bus ports",
    "fires interrupt storms",
    "sweeps memory patterns",
    "floods the io queues",
];
const TEST_EXTRA: &[&str] = &[
    "seed it with -s",
    "cap the depth with -d",
    "merge with -m",
    "bias it with -b",
    "gate it with -g",
    "theme it with -t",
    "pick ports with -p",
    "rate it with -r",
    "range it with -a",
    "queue it with -q",
];

/// Builds the industrial-world fact base.
#[must_use]
pub fn industrial_facts() -> Vec<IndustrialFact> {
    let mut facts = Vec::new();
    // Names, roles, extras, category, then the question / answer / follow-up templates.
    type Pool = (
        &'static [&'static str],
        &'static [&'static str],
        &'static [&'static str],
        IndustrialCategory,
        &'static str,
        &'static str,
        &'static str,
    );
    let pools: [Pool; 4] = [
        (
            ARCH_UNITS,
            ARCH_ROLES,
            ARCH_EXTRA,
            IndustrialCategory::Arch,
            "what does the NAME unit do?",
            "the NAME unit ACTION",
            "how wide is the NAME unit?",
        ),
        (
            BUILD_TOOLS,
            BUILD_USES,
            BUILD_EXTRA,
            IndustrialCategory::Build,
            "how do i build with NAME?",
            "with NAME ACTION",
            "what flag narrows a NAME run?",
        ),
        (
            LSF_CMDS,
            LSF_USES,
            LSF_EXTRA,
            IndustrialCategory::Lsf,
            "what does NAME do on the farm?",
            "NAME ACTION",
            "what flag tunes NAME?",
        ),
        (
            TEST_KITS,
            TEST_USES,
            TEST_EXTRA,
            IndustrialCategory::Testgen,
            "what does the NAME kit do?",
            "the NAME kit ACTION",
            "how do i tune the NAME kit?",
        ),
    ];
    for (names, actions, extras, category, q_tpl, a_tpl, f_tpl) in pools {
        for (i, name) in names.iter().enumerate() {
            let action = actions[i % actions.len()];
            let extra = extras[i % extras.len()];
            let question = q_tpl.replace("NAME", name);
            let answer = a_tpl.replace("NAME", name).replace("ACTION", action);
            let f_question = f_tpl.replace("NAME", name);
            let f_answer = format!("for {name} {extra}");
            // Terse internal-wiki style; the assistant-style answer is the
            // transformation the ChipNeMo-style DAFT learns.
            let tag = match category {
                IndustrialCategory::Arch => "arch",
                IndustrialCategory::Build => "tool",
                IndustrialCategory::Lsf => "farm",
                IndustrialCategory::Testgen => "kit",
            };
            let doc = format!("{tag} {name}: {action}. for {name} {extra}.");
            facts.push(IndustrialFact {
                name: (*name).to_string(),
                question,
                answer,
                doc,
                category,
                followup: (f_question, f_answer),
            });
        }
    }
    facts
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn openroad_fact_counts() {
        let facts = openroad_facts();
        assert_eq!(facts.len(), 16 + 12 + 12 + 10 + 10);
        // Every domain is populated.
        for d in Domain::ALL {
            assert!(facts.iter().any(|f| f.domain == d), "{d:?} missing");
        }
    }

    #[test]
    fn facts_are_distinct_and_short() {
        let facts = openroad_facts();
        let mut answers: Vec<&str> = facts.iter().map(|f| f.answer.as_str()).collect();
        answers.sort_unstable();
        answers.dedup();
        assert_eq!(answers.len(), facts.len(), "answers must be unique");
        for f in &facts {
            assert!(f.question.len() <= 40, "question too long: {}", f.question);
            assert!(f.answer.len() <= 48, "answer too long: {}", f.answer);
            assert!(f.doc.len() <= 56, "doc too long: {}", f.doc);
        }
    }

    #[test]
    fn docs_ground_answers() {
        // Docs are terse reference lines, answers assistant sentences; the
        // content words of every answer must still be recoverable from its
        // doc (the benchmark stays extractive).
        use chipalign_eval::text::tokenize;
        for f in openroad_facts() {
            let doc_tokens: std::collections::HashSet<String> =
                tokenize(&f.doc).into_iter().collect();
            let answer_tokens = tokenize(&f.answer);
            let grounded = answer_tokens
                .iter()
                .filter(|t| doc_tokens.contains(*t))
                .count();
            assert!(
                grounded * 10 >= answer_tokens.len() * 7,
                "answer poorly grounded in doc: {f:?}"
            );
            // The action phrase itself appears verbatim.
            assert!(f.doc.contains(": "), "terse doc style expected: {}", f.doc);
        }
    }

    #[test]
    fn categories_map_to_paper_columns() {
        assert_eq!(Domain::EdaScripts.openroad_category(), "Functionality");
        assert_eq!(Domain::FlowStages.openroad_category(), "VLSI Flow");
        assert_eq!(Domain::Gui.openroad_category(), "GUI & Install & Test");
    }

    #[test]
    fn industrial_fact_counts_and_categories() {
        let facts = industrial_facts();
        assert_eq!(facts.len(), 40);
        for c in IndustrialCategory::ALL {
            assert_eq!(
                facts.iter().filter(|f| f.category == c).count(),
                10,
                "{c:?} must have 10 facts"
            );
        }
    }

    #[test]
    fn industrial_followups_are_present_and_short() {
        for f in industrial_facts() {
            assert!(!f.followup.0.is_empty());
            assert!(!f.followup.1.is_empty());
            assert!(f.doc.len() <= 95, "doc too long: {}", f.doc);
            // The follow-up answer is grounded verbatim in the doc.
            assert!(
                f.doc.contains(&f.followup.1),
                "followup must be grounded: {f:?}"
            );
        }
    }
}
