"""Open-loop arrival schedules: Poisson arrivals (independent users),
requests alternating between the two served models, 25% High QoS."""
import random

HIGH_SHARE = 0.25


def poisson_schedule(seed, rate, duration):
    """[(t_seconds, model, high)] for arrivals at `rate`/s over `duration`
    seconds.  The same (seed, rate, duration) gives the same schedule."""
    rng = random.Random(seed * 1_000_003 + int(rate))
    out = []
    t = rng.expovariate(rate)
    while t < duration:
        out.append((t, len(out) % 2, rng.random() < HIGH_SHARE))
        t += rng.expovariate(rate)
    return out


def write_schedule(path, sched):
    with open(path, "w") as f:
        for t, model, high in sched:
            f.write(f"{t:.9f} {model} {int(high)}\n")
