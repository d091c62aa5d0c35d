//! Sets `cfg(babol_avx512)` when the compiler accepts AVX-512
//! `#[target_feature]`s (stable since Rust 1.89). Older toolchains, down to
//! the workspace's minimum, build the preloaded-page kernel's AVX2 and
//! portable copies only (see `src/array.rs`).

use std::process::Command;

fn main() {
    println!("cargo::rustc-check-cfg=cfg(babol_avx512)");
    println!("cargo::rerun-if-changed=build.rs");
    println!("cargo::rerun-if-env-changed=RUSTC");
    let rustc = std::env::var_os("RUSTC").unwrap_or_else(|| "rustc".into());
    let minor = Command::new(rustc)
        .arg("--version")
        .output()
        .ok()
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .and_then(|v| v.split('.').nth(1)?.parse::<u32>().ok());
    if minor.is_some_and(|m| m >= 89) {
        println!("cargo::rustc-cfg=babol_avx512");
    }
}
