"""Known-good serving fixture: a read-only getter owes no telemetry;
the state-writing method records a metric."""


class CountingQueue:
    def __init__(self, metrics):
        self.metrics = metrics
        self.admitted = 0
        self.rejected = 0

    def stats(self):
        return {
            "admitted": float(self.admitted),
            "rejected": float(self.rejected),
        }

    def reset(self):
        self.metrics.counter("serving_queue_resets_total").inc()
        self.admitted = 0
