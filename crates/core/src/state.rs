//! The per-thread solve state: cancellation token, kernel pin and the
//! four work counts of a [`Tally`] (entry evaluations, comparisons,
//! arena checkouts, forked tasks). Every fork belongs to one solve, so
//! the fork seam (`monge_parallel::runtime`) [`Fork::capture`]s the
//! caller's state, [`Fork::run`]s the other side under it and [`add`]s
//! that side's [`Tally`] to the joiner exactly once: concurrent solves
//! on other threads never see each other's deadlines, pins or counts,
//! and no count is a shared atomic that forks of one solve contend on.

use crate::guard::CancelToken;
use crate::kernel::Kernel;
use std::cell::{Cell, RefCell};
use std::mem::ManuallyDrop;

/// Work counted on a thread: its own and that of every fork it joined.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    /// Array entries evaluated (computed, copied or viewed) through
    /// [`crate::problem::Metered`] and the hypercube generator closures.
    pub evaluations: u64,
    /// Value comparisons made by the eval layer's scans and by SMAWK.
    pub comparisons: u64,
    /// Scratch-arena checkouts.
    pub checkouts: u64,
    /// Tasks forked through the fork seam.
    pub tasks: u64,
}

impl Tally {
    /// The work counted since `before` was read on the same thread.
    pub fn since(self, before: Tally) -> Tally {
        Tally {
            evaluations: self.evaluations.wrapping_sub(before.evaluations),
            comparisons: self.comparisons.wrapping_sub(before.comparisons),
            checkouts: self.checkouts.wrapping_sub(before.checkouts),
            tasks: self.tasks.wrapping_sub(before.tasks),
        }
    }
}

struct State {
    token: RefCell<Option<CancelToken>>,
    kernel: Cell<Kernel>,
    tally: Cell<Tally>,
}

thread_local! {
    // No destructor: every `Fork::run` restores the previous token before
    // it returns or unwinds, so a thread always exits with the slot empty.
    static STATE: ManuallyDrop<State> = const {
        ManuallyDrop::new(State {
            token: RefCell::new(None),
            kernel: Cell::new(Kernel::Auto),
            tally: Cell::new(Tally { evaluations: 0, comparisons: 0, checkouts: 0, tasks: 0 }),
        })
    };
}

/// The calling thread's tally.
pub fn tally() -> Tally {
    STATE.with(|s| s.tally.get())
}

/// Adds `t` to the calling thread's tally.
#[inline]
pub fn add(t: Tally) {
    STATE.with(|s| {
        let u = s.tally.get();
        s.tally.set(Tally {
            evaluations: u.evaluations.wrapping_add(t.evaluations),
            comparisons: u.comparisons.wrapping_add(t.comparisons),
            checkouts: u.checkouts.wrapping_add(t.checkouts),
            tasks: u.tasks.wrapping_add(t.tasks),
        });
    });
}

/// Has the token installed on this thread fired?
#[inline]
pub(crate) fn cancelled() -> bool {
    STATE.with(|s| matches!(&*s.token.borrow(), Some(t) if t.is_cancelled()))
}

/// The calling thread's kernel pin ([`Kernel::Auto`] when none).
#[inline]
pub(crate) fn kernel() -> Kernel {
    STATE.with(|s| s.kernel.get())
}

/// Runs `f` with `token` and `kernel` installed on the calling thread
/// ([`Fork::run`]), leaving its counts in this thread's tally.
pub(crate) fn install<R>(token: Option<CancelToken>, kernel: Kernel, f: impl FnOnce() -> R) -> R {
    let (r, spent) = Fork { token, kernel }.run(f);
    add(spent);
    r
}

/// A token and kernel pin to run work under: the caller's, captured for
/// the other side of a fork, or with one replaced for a scoped install.
#[derive(Clone, Debug)]
pub struct Fork {
    pub(crate) token: Option<CancelToken>,
    pub(crate) kernel: Kernel,
}

impl Fork {
    /// Captures the calling thread's token and kernel pin.
    pub fn capture() -> Fork {
        STATE.with(|s| Fork {
            token: s.token.borrow().clone(),
            kernel: s.kernel.get(),
        })
    }

    /// Runs `f` with this token and kernel installed on the calling
    /// thread (the previous pair is restored when `f` returns or
    /// unwinds), returning its result and the work it counted, taken out
    /// of this thread's tally for the joiner to [`add`] exactly once.
    pub fn run<R>(self, f: impl FnOnce() -> R) -> (R, Tally) {
        struct Restore(Option<CancelToken>, Kernel);
        impl Drop for Restore {
            fn drop(&mut self) {
                STATE.with(|s| {
                    s.token.replace(self.0.take());
                    s.kernel.set(self.1);
                });
            }
        }
        let _restore =
            STATE.with(|s| Restore(s.token.replace(self.token), s.kernel.replace(self.kernel)));
        let before = tally();
        let r = f();
        let spent = tally().since(before);
        STATE.with(|s| s.tally.set(before));
        (r, spent)
    }
}
