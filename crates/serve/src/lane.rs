//! A worker's ingress lane: one bounded FIFO under one mutex, with a
//! condvar for space (producers park on it) and one for work (the worker
//! parks on it). See the crate docs' "Batching & backpressure" section.

use crate::IngressReport;
use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

/// How long [`Lane::push`] may park on a full lane.
pub(crate) enum Wait {
    Never,
    Until(Instant),
    Forever,
}

/// What [`Lane::pop`] found.
pub(crate) enum Pop<M> {
    Msg(M),
    /// The deadline passed with the lane empty.
    Timeout,
    /// The lane is closed and drained.
    Closed,
}

pub(crate) struct Lane<M> {
    depth: usize,
    state: Mutex<State<M>>,
    space: Condvar,
    work: Condvar,
}

struct State<M> {
    queue: VecDeque<M>,
    closed: bool,
    counters: IngressReport,
    /// Producers parked on `space`: a pop without one skips the wake-up.
    producers: usize,
    /// The worker is parked on `work`: a push otherwise skips the wake-up.
    worker_parked: bool,
}

/// Parks on `cv` until notified, or until `deadline` when one is given.
fn park<'a, S>(cv: &Condvar, s: MutexGuard<'a, S>, deadline: Option<Instant>) -> MutexGuard<'a, S> {
    match deadline {
        Some(d) => {
            let timeout = d.saturating_duration_since(Instant::now());
            cv.wait_timeout(s, timeout)
                .unwrap_or_else(PoisonError::into_inner)
                .0
        }
        None => cv.wait(s).unwrap_or_else(PoisonError::into_inner),
    }
}

impl<M> Lane<M> {
    pub(crate) fn new(depth: usize) -> Self {
        let state = State {
            queue: VecDeque::with_capacity(depth),
            closed: false,
            counters: IngressReport::default(),
            producers: 0,
            worker_parked: false,
        };
        Lane {
            depth,
            state: Mutex::new(state),
            space: Condvar::new(),
            work: Condvar::new(),
        }
    }

    /// Nothing panics under the lock, so a poisoned one is still sound.
    fn state(&self) -> MutexGuard<'_, State<M>> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Enqueues `item`, parking on a full lane as `wait` allows; a full or
    /// closed lane hands it back. The item becomes a message only once its
    /// slot is secured, so a conversion that stamps the time leaves the
    /// time spent parked out of the stamp.
    pub(crate) fn push<P: Into<M>>(&self, item: P, wait: Wait) -> Result<(), P> {
        let mut s = self.state();
        let mut parked = false;
        while !s.closed && s.queue.len() >= self.depth {
            let deadline = match wait {
                Wait::Until(d) if d > Instant::now() => Some(d),
                Wait::Forever => None,
                _ => break,
            };
            if !parked {
                parked = true;
                s.counters.parked += 1;
            }
            s.producers += 1;
            s = park(&self.space, s, deadline);
            s.producers -= 1;
        }
        if s.closed {
            return Err(item);
        }
        if s.queue.len() >= self.depth {
            s.counters.busy_rejections += 1;
            return Err(item);
        }
        if parked {
            s.counters.woken += 1;
        } else {
            s.counters.immediate += 1;
        }
        s.queue.push_back(item.into());
        let wake = s.worker_parked;
        drop(s);
        if wake {
            self.work.notify_one();
        }
        Ok(())
    }

    /// Dequeues the oldest message, parking while the lane is empty: until
    /// `deadline` when one is given, otherwise until a push or a close.
    pub(crate) fn pop(&self, deadline: Option<Instant>) -> Pop<M> {
        let mut s = self.state();
        loop {
            if let Some(msg) = s.queue.pop_front() {
                let wake = s.producers > 0;
                drop(s);
                if wake {
                    self.space.notify_one();
                }
                return Pop::Msg(msg);
            }
            if s.closed {
                return Pop::Closed;
            }
            if deadline.is_some_and(|d| d <= Instant::now()) {
                return Pop::Timeout;
            }
            s.worker_parked = true;
            s = park(&self.work, s, deadline);
            s.worker_parked = false;
        }
    }

    /// Refuses every later push and wakes everyone parked: producers get
    /// their items back, the worker drains the queue, then sees `Closed`.
    pub(crate) fn close(&self) {
        self.state().closed = true;
        self.space.notify_all();
        self.work.notify_all();
    }

    /// Counts a rejection made outside the lane (a chaos-forced `Busy`).
    pub(crate) fn reject(&self) {
        self.state().counters.busy_rejections += 1;
    }

    pub(crate) fn counters(&self) -> IngressReport {
        self.state().counters
    }
}

/// One end of a lane; dropping it closes the lane. The server holds one
/// per worker and each worker its own, so a dropped server stops its
/// workers, and a worker that exits, by unwinding too, refuses its
/// producers instead of leaving them parked.
pub(crate) struct LaneEnd<M>(pub(crate) Arc<Lane<M>>);

impl<M> Drop for LaneEnd<M> {
    fn drop(&mut self) {
        self.0.close();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;
    use std::time::Duration;

    fn popped(lane: &Lane<u32>) -> u32 {
        match lane.pop(None) {
            Pop::Msg(m) => m,
            _ => panic!("expected a message"),
        }
    }

    /// Spins (yielding) until `lane` counts `n` parked producers.
    fn await_parked(lane: &Lane<u32>, n: u64) {
        while lane.counters().parked < n {
            thread::yield_now();
        }
    }

    #[test]
    fn depth_bounds_the_queue_and_order_is_fifo() {
        let lane = Lane::<u32>::new(3);
        for m in 0..3u32 {
            assert!(lane.push(m, Wait::Never).is_ok());
        }
        assert!(
            lane.push(3u32, Wait::Never).is_err(),
            "the bound admitted a fourth message"
        );
        assert_eq!(lane.state().queue.len(), 3);
        assert_eq!((0..3).map(|_| popped(&lane)).collect::<Vec<_>>(), [0, 1, 2]);
        assert!(lane.push(3u32, Wait::Never).is_ok(), "a pop frees a slot");
        assert_eq!(popped(&lane), 3);
        assert_eq!(lane.counters().immediate, 4);
    }

    #[test]
    fn never_on_a_full_lane_hands_the_message_back() {
        let lane = Lane::<u32>::new(1);
        assert!(lane.push(1u32, Wait::Never).is_ok());
        assert_eq!(lane.push(2u32, Wait::Never), Err(2u32));
        let c = lane.counters();
        assert_eq!((c.immediate, c.busy_rejections, c.parked), (1, 1, 0));
        assert_eq!(popped(&lane), 1);
    }

    #[test]
    fn until_expires_hands_back_and_counts_parked_not_woken() {
        let lane = Lane::<u32>::new(1);
        assert!(lane.push(1u32, Wait::Never).is_ok());
        let deadline = Instant::now() + Duration::from_millis(20);
        assert_eq!(lane.push(2u32, Wait::Until(deadline)), Err(2u32));
        assert!(Instant::now() >= deadline);
        let c = lane.counters();
        assert_eq!((c.parked, c.woken, c.busy_rejections), (1, 0, 1));
        assert_eq!(
            lane.state().queue.len(),
            1,
            "the expired push left no trace"
        );
    }

    #[test]
    fn forever_parks_until_a_pop_wakes_it() {
        let lane = Arc::new(Lane::<u32>::new(1));
        assert!(lane.push(1u32, Wait::Never).is_ok());
        let producer = {
            let lane = Arc::clone(&lane);
            thread::spawn(move || lane.push(2u32, Wait::Forever))
        };
        await_parked(&lane, 1);
        assert_eq!(popped(&lane), 1);
        assert_eq!(producer.join().unwrap(), Ok(()));
        assert_eq!(popped(&lane), 2);
        let c = lane.counters();
        assert_eq!((c.immediate, c.parked, c.woken), (1, 1, 1));
    }

    #[test]
    fn close_wakes_parked_producers_and_the_worker() {
        let lane = Arc::new(Lane::<u32>::new(1));
        assert!(lane.push(1u32, Wait::Never).is_ok());
        let producer = {
            let lane = Arc::clone(&lane);
            thread::spawn(move || lane.push(2u32, Wait::Forever))
        };
        await_parked(&lane, 1);
        lane.close();
        assert_eq!(producer.join().unwrap(), Err(2u32));
        assert_eq!(lane.counters().woken, 0);
        assert_eq!(popped(&lane), 1, "queued messages drain before Closed");
        assert!(matches!(lane.pop(None), Pop::Closed));
        assert_eq!(lane.push(3u32, Wait::Forever), Err(3u32));

        let idle = Arc::new(Lane::<u32>::new(1));
        let worker = {
            let idle = Arc::clone(&idle);
            thread::spawn(move || matches!(idle.pop(None), Pop::Closed))
        };
        while !idle.state().worker_parked {
            thread::yield_now();
        }
        drop(LaneEnd(Arc::clone(&idle)));
        assert!(
            worker.join().unwrap(),
            "dropping a lane end closes the lane"
        );
    }

    #[test]
    fn pop_with_a_past_deadline_times_out() {
        let lane = Lane::<u32>::new(1);
        assert!(matches!(lane.pop(Some(Instant::now())), Pop::Timeout));
        assert!(!lane.state().worker_parked);
    }

    #[test]
    fn contended_producers_arrive_exactly_once_in_order() {
        const PRODUCERS: u32 = 4;
        const EACH: u32 = 500;
        let lane = Arc::new(Lane::<u32>::new(2));
        let producers: Vec<_> = (0..PRODUCERS)
            .map(|p| {
                let lane = Arc::clone(&lane);
                thread::spawn(move || {
                    for i in 0..EACH {
                        assert!(lane.push(p * EACH + i, Wait::Forever).is_ok());
                    }
                })
            })
            .collect();
        let mut next = [0u32; PRODUCERS as usize];
        for _ in 0..PRODUCERS * EACH {
            let m = popped(&lane);
            let p = (m / EACH) as usize;
            assert_eq!(m % EACH, next[p], "producer {p} out of order");
            next[p] += 1;
        }
        for h in producers {
            h.join().unwrap();
        }
        assert_eq!(next, [EACH; PRODUCERS as usize]);
        assert!(matches!(lane.pop(Some(Instant::now())), Pop::Timeout));
        let c = lane.counters();
        assert_eq!(c.immediate + c.woken, u64::from(PRODUCERS * EACH));
    }
}
