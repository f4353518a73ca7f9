//! Seeded fuzz of the v2 JSON line decoder, the first thing every
//! client byte meets: hostile token soup and mutations of valid
//! envelopes go through `Engine::dispatch_line` and
//! `serde_json::from_str::<Envelope>`.
//!
//! Properties, per line:
//! * no panic;
//! * exactly one reply line, and a typed `BadRequest` whenever the line
//!   does not decode;
//! * total allocation while answering a line that does not decode is at
//!   most 64× the line's length (lines under 64 bytes are charged as 64
//!   bytes, which covers the fixed cost of any reply), and decoding any
//!   line allocates no more than that either.
//!
//! Allocation is counted per thread by this binary's global allocator,
//! so tests running side by side do not see each other's bytes.

mod common;

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use whatif::core::ErrorCode;
use whatif::server::{Engine, Envelope, Reply, Response};

struct Counting;

thread_local! {
    static ALLOCATED: Cell<usize> = const { Cell::new(0) };
}

fn count(bytes: usize) {
    // `try_with`: the slot is gone while the thread tears down.
    let _ = ALLOCATED.try_with(|a| a.set(a.get().saturating_add(bytes)));
}

// SAFETY: every call forwards to `System` unchanged; the counter is a
// const-initialised thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size.saturating_sub(layout.size()));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Bytes allocated on this thread while running `f`.
fn allocated_by<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = ALLOCATED.with(Cell::get);
    let out = f();
    (out, ALLOCATED.with(Cell::get) - before)
}

fn budget(line: &str) -> usize {
    64 * line.len().max(64)
}

/// Does the line decode as the server would read it (a v2 envelope if
/// it has `id` and `body` keys, else a v1 request)?
fn decodes(line: &str) -> bool {
    let Ok(tree) = serde_json::parse(line) else {
        return false;
    };
    let envelope_shaped = tree.as_object().is_some_and(|o| {
        serde::find_field(o, "id").is_some() && serde::find_field(o, "body").is_some()
    });
    if envelope_shaped {
        serde_json::from_value::<Envelope>(&tree).is_ok()
    } else {
        serde_json::from_value::<whatif::server::Request>(&tree).is_ok()
    }
}

/// The error a reply line carries, whichever framing it uses.
fn reply_error(reply: &str) -> Option<ErrorCode> {
    let tree = serde_json::parse(reply).unwrap_or_else(|e| panic!("{e}: {reply}"));
    if tree
        .as_object()
        .is_some_and(|o| serde::find_field(o, "id").is_some())
    {
        let reply: Reply = serde_json::from_value(&tree).unwrap();
        reply.error.map(|e| e.code)
    } else {
        let response: Response = serde_json::from_value(&tree).unwrap();
        response.as_error().map(|e| e.code)
    }
}

fn check_line(engine: &Engine, line: &str) {
    let ((reply, _shutdown), spent) = allocated_by(|| engine.dispatch_line(line));
    assert!(
        !reply.is_empty() && !reply.contains('\n'),
        "not exactly one reply line for {line:?}: {reply:?}"
    );
    if !decodes(line) {
        assert_eq!(
            reply_error(&reply),
            Some(ErrorCode::BadRequest),
            "{line:?} -> {reply}"
        );
        assert!(
            spent <= budget(line),
            "answering {} bytes allocated {spent} bytes: {line:?}",
            line.len()
        );
    }
    let (_, spent) = allocated_by(|| serde_json::from_str::<Envelope>(line).is_ok());
    assert!(
        spent <= budget(line),
        "decoding {} bytes allocated {spent} bytes: {line:?}",
        line.len()
    );
}

fn warm(engine: &Engine) {
    // First requests register metrics and fill lazy statics; only
    // steady-state allocation is the codec's.
    let mut rng = StdRng::seed_from_u64(1);
    for _ in 0..200 {
        engine.dispatch_line(&common::any_line(&mut rng));
    }
}

#[test]
fn hostile_and_mutated_lines_get_one_bounded_typed_reply() {
    let engine = Engine::new();
    warm(&engine);
    let mut rng = StdRng::seed_from_u64(0xf022_2014);
    for _ in 0..3_000 {
        check_line(&engine, &common::any_line(&mut rng));
    }
}

#[test]
fn deep_nesting_just_under_the_cap_stays_within_the_allocation_bound() {
    let engine = Engine::new();
    warm(&engine);
    for depth in [1, 2, 8, 64, 127, 128, 129, 1000] {
        for (open, close) in [("[", "]"), ("{\"a\":", "}")] {
            let line = format!("{}1{}", open.repeat(depth), close.repeat(depth));
            check_line(&engine, &line);
            let line = format!(
                r#"{{"id":1,"body":{}{}}}"#,
                open.repeat(depth),
                close.repeat(depth)
            );
            check_line(&engine, &line);
        }
        let empties = format!("[{}]", vec!["[]"; depth].join(","));
        check_line(&engine, &empties);
    }
}
