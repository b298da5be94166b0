//! `BENCHMARK.json` names exactly the workloads and metrics the program
//! prints.

fn manifest() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root")
}

fn listed(json: &str, section: &str) -> Vec<String> {
    let start = json
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &json[start..];
    let end = body.find(']').expect("section closes");
    body[..end]
        .split("\"name\": \"")
        .skip(1)
        .map(|rest| rest[..rest.find('"').expect("name closes")].to_string())
        .collect()
}

#[test]
fn manifest_matches_the_program() {
    let json = manifest();
    assert_eq!(listed(&json, "workloads"), perfbench::WORKLOADS);
    let e2e: Vec<&str> = perfbench::END_TO_END.iter().map(|(n, _)| *n).collect();
    assert_eq!(listed(&json, "end_to_end"), e2e);
    let layers: Vec<String> = perfbench::per_layer().into_iter().map(|(n, _)| n).collect();
    assert_eq!(listed(&json, "per_layer"), layers);
    for (name, unit) in perfbench::per_layer() {
        let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
        assert!(json.contains(&entry), "{entry}");
    }
}
