//! A binary target: its `pub fn`s are not library surface.

pub fn main_helper() -> u32 {
    7
}

fn main() {}
