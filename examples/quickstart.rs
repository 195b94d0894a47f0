//! Quickstart: write a program, state a policy, enforce it, check the
//! enforcement.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use enforcement::prelude::*;

fn main() {
    // Section 3's language: a program over inputs x1 (a salary — secret)
    // and x2 (a public flag). The programmer copies the salary into y and
    // only sometimes remembers to scrub it.
    let fc = parse(
        "program(2) {
            y := x1;                 // stash the secret
            if x2 == 0 { y := 0; }   // scrub on the public path
        }",
    )
    .expect("program parses");
    let program = FlowchartProgram::new(fc);

    // The policy allow(2): the user may learn x2 and nothing about x1.
    let policy = Allow::new(2, [2]);
    println!("policy: allow(2) — reveal x2 only");

    // The surveillance protection mechanism of Section 3.
    let mech = Surveillance::new(program.clone(), policy.allowed());

    // Run it as a user would.
    for input in [[7, 0], [7, 5], [123, 0], [123, 5]] {
        match mech.run(&input) {
            MechOutput::Value(v) => println!("  M({input:?}) = {v}"),
            MechOutput::Violation(n) => println!("  M({input:?}) = violation: {n}"),
        }
    }

    // Is it actually sound? Partition a test grid by the policy view and
    // demand M be constant on every class.
    let grid = Grid::hypercube(2, -5..=5);
    let report = check_soundness(&mech, &policy, &grid, false);
    println!("soundness over {} inputs: {report:?}", grid.len());
    assert!(report.is_sound());

    // Clause (1) of the mechanism definition: accepted outputs equal Q's.
    assert!(check_protection(&mech, &program, &grid).is_ok());
    println!("protection-mechanism property: ok");

    // Compare against the high-water-mark baseline (no forgetting):
    // strictly less complete, exactly as Section 4 argues.
    let hw = Surveillance::highwater(program, policy.allowed());
    let cmp = compare(&mech, &hw, &grid);
    println!(
        "surveillance accepts {}/{} inputs, high-water {}/{} — ordering {:?}",
        cmp.accepted_first, cmp.inputs, cmp.accepted_second, cmp.inputs, cmp.ordering
    );
}
