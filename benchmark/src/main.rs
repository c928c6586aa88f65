use std::process::ExitCode;

use bfc_benchmark::alloc::CountingAlloc;

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

fn main() -> ExitCode {
    bfc_benchmark::cli::main()
}
