// Known-good: serial iteration, and naming an enum variant `ThreadPool` is
// not a parallelism primitive (an enum variant is config, not a thread).
fn step_all(tasks: Vec<Task>) -> Vec<Outcome> {
    let kind = BackendKind::ThreadPool;
    let _ = kind;
    tasks.into_iter().map(run_one).collect()
}
