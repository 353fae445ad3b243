// Fixture for rule `telemetry-names` (R3): the counting side. Paired
// with r3_names.rs. This file is lint input, not compiled code. An
// undeclared name (MISSING) is rustc's to reject, not this rule's.

pub fn record(rec: &mut Recorder) {
    rec.count(names::RUNS, 1);
    rec.count(names::DUP_A, 1);
    rec.count(names::DUP_B, 1);
    rec.count(names::UNREGISTERED, 1); //~ telemetry-names
    rec.count(names::MISSING, 1);
    // A name inside a string is not a use: "names::ORPHANED".
    let _doc = "see names::ORPHANED";
}
