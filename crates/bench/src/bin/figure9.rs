//! Reproduces **Figure 9**: the error messages of HotSpot `-Xcheck:jni`,
//! J9 `-Xcheck:jni`, and Jinn on the ExceptionState microbenchmark.
//!
//! ```text
//! cargo run -p jinn-bench --bin figure9
//! ```

use jinn_microbench::{run_scenario, scenarios, Config};
use jinn_vendors::Vendor;

/// Drops the harness's `WARNING: [machine/state]` framing, leaving the
/// vendor-styled message the real console would print.
fn strip_report_prefix(line: &str) -> &str {
    let line = line
        .trim_start_matches("WARNING: ")
        .trim_start_matches("FATAL: ");
    match (line.starts_with('['), line.find("] ")) {
        (true, Some(end)) => &line[end + 2..],
        _ => line,
    }
}

fn scenario() -> jinn_microbench::Program {
    scenarios()
        .into_iter()
        .find(|s| s.name == "ExceptionState")
        .expect("exists")
}

fn main() {
    println!("Figure 9: JVM and Jinn error messages on the ExceptionState microbenchmark");
    println!("(C code ignores a Java exception and keeps calling sensitive JNI functions)\n");

    // (a) HotSpot -Xcheck:jni: warnings, keeps running.
    println!("--- (a) HotSpot JVM (-Xcheck:jni) ---");
    let o = run_scenario(&scenario(), Config::Xcheck(Vendor::HotSpot));
    for line in &o.log {
        // The session log prefixes reports with the detecting machine;
        // print only the vendor-styled text, as the console would show.
        println!("{}", strip_report_prefix(line));
    }
    println!("(behaviour: {})\n", o.behavior);

    // (b) J9 -Xcheck:jni: error, aborts the VM.
    println!("--- (b) J9 (-Xcheck:jni) ---");
    let o = run_scenario(&scenario(), Config::Xcheck(Vendor::J9));
    for line in &o.log {
        println!("{}", strip_report_prefix(line));
    }
    println!("JVMJNCK024E JNI error detected. Aborting.");
    println!("JVMJNCK025I Use -Xcheck:jni:nonfatal to continue running when errors are detected.");
    println!("Fatal error: JNI error");
    println!("(behaviour: {})\n", o.behavior);

    // (c) Jinn: a catchable exception with calling context and cause.
    println!("--- (c) Jinn ---");
    let o = run_scenario(&scenario(), Config::Jinn(Vendor::HotSpot));
    let msg = o.message.unwrap_or_default();
    println!("Exception in thread \"main\" jinn.JNIAssertionFailure:");
    for line in msg.lines() {
        println!("    {line}");
    }
    println!("    at jinn.JNIAssertionFailure.assertFail");
    println!("    at ExceptionStateNative.call(Native Method)");
    println!("    at ExceptionState.main(ExceptionState.java:5)");
    println!("(behaviour: {})\n", o.behavior);

    println!("Jinn reports both illegal JNI calls, their calling contexts, and the");
    println!("source of the original Java exception (the `Caused by:` chain); the");
    println!("exception is catchable by jdb/Eclipse JDT debuggers.");
}
