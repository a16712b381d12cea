"""Known-bad serving fixture: the read-only getter passes OBS-301, but
a public method that writes state with no span or metric still fires
once."""


class CountingQueue:
    def __init__(self):
        self.admitted = 0
        self.rejected = 0

    def stats(self):
        return {
            "admitted": float(self.admitted),
            "rejected": float(self.rejected),
        }

    def reset(self):
        self.admitted = 0
