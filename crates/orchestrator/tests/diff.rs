//! Integration tests of incremental re-verification (`vericlick diff`):
//! a one-element edit re-plans only the affected scenarios and re-explores
//! only the edited behaviour; wiring-only diffs get a composition-only pass
//! (zero element jobs); identical configs are skipped outright.

use dataplane_orchestrator::diff::{config_scenarios, default_properties, DiffKind, NamedConfig};
use dataplane_orchestrator::VerifyService;
use dataplane_verifier::Verdict;

const ROUTER: &str = r#"
    cls :: Classifier(12/0800);
    strip :: EthDecap();
    chk :: CheckIPHeader();
    rt :: IPLookup(10.0.0.0/8 0, 192.168.0.0/16 1);
    ttl0 :: DecTTL();
    ttl1 :: DecTTL();
    out0 :: Sink();
    out1 :: Sink();
    cls -> strip -> chk -> rt;
    rt[0] -> ttl0 -> out0;
    rt[1] -> ttl1 -> out1;
"#;

const FILTER: &str = r#"
    strip :: EthDecap();
    chk :: CheckIPHeader();
    f :: SrcFilter(203.0.113.9);
    out :: Sink();
    strip -> chk -> f -> out;
"#;

const MINI: &str = r#"
    cnt :: Counter();
    ttl :: DecTTL();
    s0 :: Sink();
    s1 :: Sink();
    cnt -> ttl -> s0;
"#;

fn old_configs() -> Vec<NamedConfig> {
    vec![
        NamedConfig::new("router", ROUTER),
        NamedConfig::new("filter", FILTER),
        NamedConfig::new("mini", MINI),
    ]
}

#[test]
fn one_element_edit_replans_only_affected_scenarios() {
    let service = VerifyService::new().with_threads(2);
    let baseline =
        service.run_matrix(config_scenarios(&old_configs(), &default_properties).unwrap());
    let (_, _, unknown) = baseline.verdict_counts();
    assert_eq!(unknown, 0, "baseline must decide");

    // Edit one element (a route's prefix length) in one config.
    let new = vec![
        NamedConfig::new(
            "router",
            ROUTER.replace("192.168.0.0/16 1", "192.168.0.0/24 1"),
        ),
        NamedConfig::new("filter", FILTER),
        NamedConfig::new("mini", MINI),
    ];
    let report = service
        .verify_diff(&old_configs(), &new, &default_properties)
        .unwrap();

    let kind = |name: &str| {
        report
            .entries
            .iter()
            .find(|e| e.name == name)
            .unwrap_or_else(|| panic!("no entry for {name}"))
    };
    assert_eq!(kind("router").kind, DiffKind::ElementsChanged);
    assert_eq!(kind("router").changed_elements, vec!["rt".to_string()]);
    assert_eq!(kind("router").scenarios_planned, 2);
    assert_eq!(kind("filter").kind, DiffKind::Identical);
    assert_eq!(kind("mini").kind, DiffKind::Identical);

    // Only the affected config's scenarios are re-verified, and only the
    // edited element behaviour is re-explored.
    assert_eq!(report.reverified_scenarios(), 2);
    assert_eq!(report.skipped_scenarios, 4);
    assert_eq!(
        report.matrix.explore_jobs, 1,
        "exactly the edited element must be re-explored"
    );
    for scenario in &report.matrix.scenarios {
        assert_eq!(scenario.pipeline_name, "router");
        assert_eq!(
            scenario.report.verdict,
            Verdict::Proven,
            "{}",
            scenario.label()
        );
    }
}

#[test]
fn wiring_only_diff_is_composition_only() {
    let service = VerifyService::new().with_threads(2);
    let old = vec![NamedConfig::new("mini", MINI)];
    service.run_matrix(config_scenarios(&old, &default_properties).unwrap());

    let new = vec![NamedConfig::new(
        "mini",
        MINI.replace("cnt -> ttl -> s0;", "cnt -> ttl -> s1;"),
    )];
    let report = service
        .verify_diff(&old, &new, &default_properties)
        .unwrap();
    assert_eq!(report.entries[0].kind, DiffKind::WiringOnly);
    assert_eq!(report.reverified_scenarios(), 2);
    assert_eq!(
        report.matrix.explore_jobs, 0,
        "a wiring-only diff must plan zero explore jobs"
    );
    assert!(
        report.matrix.cached_jobs > 0,
        "summaries came from the store"
    );
    let (proven, _, unknown) = report.matrix.verdict_counts();
    assert_eq!((proven, unknown), (2, 0));
}

#[test]
fn identical_configs_verify_nothing() {
    let service = VerifyService::new().with_threads(2);
    let old = vec![NamedConfig::new("mini", MINI)];
    let report = service
        .verify_diff(&old, &old.clone(), &default_properties)
        .unwrap();
    assert_eq!(report.entries[0].kind, DiffKind::Identical);
    assert_eq!(report.reverified_scenarios(), 0);
    assert_eq!(report.skipped_scenarios, 2);
    assert_eq!(report.matrix.explore_jobs, 0);
}

#[test]
fn added_and_removed_configs_are_reported() {
    let service = VerifyService::new().with_threads(2);
    let old = vec![NamedConfig::new("mini", MINI)];
    let new = vec![
        NamedConfig::new("mini", MINI),
        NamedConfig::new("filter", FILTER),
    ];
    let report = service
        .verify_diff(&old, &new, &default_properties)
        .unwrap();
    assert_eq!(
        report
            .entries
            .iter()
            .find(|e| e.name == "filter")
            .unwrap()
            .kind,
        DiffKind::Added
    );
    assert_eq!(
        report.reverified_scenarios(),
        2,
        "the added config verifies"
    );

    let shrunk = service
        .verify_diff(&new, &old, &default_properties)
        .unwrap();
    assert_eq!(shrunk.removed_configs, vec!["filter".to_string()]);
    assert_eq!(shrunk.reverified_scenarios(), 0);
}

#[test]
fn diff_verdicts_match_verifying_the_new_configs_from_scratch() {
    let service = VerifyService::new().with_threads(2);
    let old = old_configs();
    service.run_matrix(config_scenarios(&old, &default_properties).unwrap());
    let new = vec![
        NamedConfig::new("router", ROUTER.replace("10.0.0.0/8 0", "10.0.0.0/8 1")),
        NamedConfig::new("filter", FILTER),
        NamedConfig::new("mini", MINI),
    ];
    let incremental = service
        .verify_diff(&old, &new, &default_properties)
        .unwrap();

    let fresh = VerifyService::new()
        .with_threads(2)
        .run_matrix(config_scenarios(&new, &default_properties).unwrap());
    for scenario in &incremental.matrix.scenarios {
        let from_scratch = fresh
            .scenarios
            .iter()
            .find(|s| s.label() == scenario.label())
            .expect("scenario exists in the from-scratch run");
        assert_eq!(
            scenario.report.verdict,
            from_scratch.report.verdict,
            "{}: incremental and from-scratch verdicts diverge",
            scenario.label()
        );
    }
}
