// Known-bad: std's scoped threads are the primitive `par_map` is built on;
// outside crates/sim/src/backend.rs they would be a second, unaudited
// parallel path whose results could follow the thread schedule.
fn step_all(tasks: Vec<Task>) -> Vec<Outcome> {
    std::thread::scope(|s| {
        let workers: Vec<_> = tasks
            .into_iter()
            .map(|t| s.spawn(move || run_one(t)))
            .collect();
        workers.into_iter().map(|w| w.join().unwrap()).collect()
    })
}
