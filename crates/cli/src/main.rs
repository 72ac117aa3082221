//! The `dim` command-line tool. See `dim help`.

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    if let Err(e) = dim_cli::dispatch(&args, &mut out) {
        // A reader that stops early (`dim ... | head`) closes the pipe:
        // what it read is complete, so that is not a failure.
        if e.io_kind() == Some(std::io::ErrorKind::BrokenPipe) {
            return;
        }
        eprintln!("dim: {e}");
        std::process::exit(1);
    }
}
