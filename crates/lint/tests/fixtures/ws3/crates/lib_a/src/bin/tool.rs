//! A `src/bin/` target: not library surface either.

pub fn tool_helper() -> u32 {
    8
}

fn main() {}
