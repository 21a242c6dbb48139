// Known-bad: driving absorption from outside crates/sim/src/absorb.rs
// bypasses the event-ordered absorption point the bit-identity proof fixes.
fn shortcut(algorithm: &mut dyn FlAlgorithm, env: &FlEnv, update: ClientUpdate) {
    algorithm.absorb_update(env, 0, update);
}
