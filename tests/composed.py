"""Test-local stand-in stages: the single-path run protocol of
``geometry._Stage.heun_run`` over a step of the stand-in's own."""
import math


def composed_run(step):
    """A ``heun_run(y, ws, dt, rows)`` that steps ``y`` by ``step(y, w, dt)``
    once per increments list of ``ws``, with the generated run's protocol:
    each state is screened, then appended to ``rows``; at a non-finite state
    the run returns the index of its step without appending it, and after
    the last step it appends the final state and returns None.  ``step``
    raises its own errors, so this run hands no step back."""
    def heun_run(y, ws, dt, rows):
        start = len(rows)
        for w in ws:
            if not all(map(math.isfinite, y)):
                return (len(rows) - start) // len(y)
            rows.extend(y)
            y = step(y, w, dt)
        if not all(map(math.isfinite, y)):
            return (len(rows) - start) // len(y)
        rows.extend(y)
        return None
    return heun_run
