"""Tests for the scheduler adapters."""

import threading
import time

from repro.core.scheduling import ProcessScheduler
from repro.simnet.events import Simulator
from repro.simnet.network import Network
from repro.simnet.process import Process
from repro.transport.aio import AioScheduler, shared_loop


class TestProcessScheduler:
    def test_now_tracks_simulated_time(self):
        sim = Simulator()
        network = Network(sim)
        process = Process("p", network)
        process.start()
        scheduler = ProcessScheduler(process)
        assert scheduler.now == 0.0
        sim.call_after(2.0, lambda: None)
        sim.run()
        assert scheduler.now == 2.0

    def test_timer_fires_and_dies_with_crash(self):
        sim = Simulator()
        network = Network(sim)
        process = Process("p", network)
        process.start()
        scheduler = ProcessScheduler(process)
        fired = []
        scheduler.call_after(1.0, lambda: fired.append("a"))
        scheduler.call_after(3.0, lambda: fired.append("b"))
        sim.call_after(2.0, process.crash)
        sim.run()
        assert fired == ["a"]

    def test_timer_is_cancellable(self):
        sim = Simulator()
        network = Network(sim)
        process = Process("p", network)
        process.start()
        scheduler = ProcessScheduler(process)
        fired = []
        timer = scheduler.call_after(1.0, lambda: fired.append("x"))
        timer.cancel()
        sim.run()
        assert fired == []


class TestAioScheduler:
    """The live scheduler: loop timers, callable from any thread."""

    def test_fires_on_the_loop_thread(self):
        scheduler = AioScheduler(shared_loop())
        fired_on = []
        event = threading.Event()

        def callback():
            fired_on.append(threading.current_thread())
            event.set()

        scheduler.call_after(0.02, callback)
        assert event.wait(timeout=2.0)
        assert fired_on != [threading.current_thread()]
        scheduler.close()

    def test_now_is_the_loop_clock(self):
        scheduler = AioScheduler(shared_loop())
        first = scheduler.now
        time.sleep(0.01)
        assert scheduler.now > first
        scheduler.close()

    def test_close_silences_pending(self):
        scheduler = AioScheduler(shared_loop())
        fired = threading.Event()
        scheduler.call_after(0.2, fired.set)
        scheduler.close()
        assert not fired.wait(timeout=0.4)

    def test_cancel_silences_one_timer(self):
        scheduler = AioScheduler(shared_loop())
        fired = []
        done = threading.Event()
        scheduler.call_after(0.05, lambda: fired.append("cancelled")).cancel()
        scheduler.call_after(0.1, done.set)
        assert done.wait(timeout=2.0)
        assert fired == []
        scheduler.close()

    def test_call_after_close_is_noop(self):
        scheduler = AioScheduler(shared_loop())
        scheduler.close()
        timer = scheduler.call_after(0.01, lambda: None)
        timer.cancel()  # null timer supports the interface
