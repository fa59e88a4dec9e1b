//! One untraced scenario run with the system allocator; prints the
//! measurements and the report as one JSON object. With `--setup-only`
//! it stops at the end of set-up and prints only `setup_s`.
//!
//! `perfbench-timed [--setup-only] <scenario> <nodes> <seed>`

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let setup_only = args.first().is_some_and(|a| a == "--setup-only");
    if setup_only {
        args.remove(0);
        perfbench::run_main(&args, perfbench::setup_run);
    } else {
        perfbench::run_main(&args, perfbench::timed_run);
    }
}
