"""Step inside the listener: watch posteriors sharpen interval by interval.

A tiny five-state chain with a fully distinguishing schedule (every state
waits a different number of steps before the next request) makes the
inference transparent: each observed interval narrows the posterior over
the state that was reported at the request that opened it, and smoothing
propagates that certainty backwards over earlier instants.
"""

import numpy as np

import schedleak as sl


def bar(p, width=30):
    return "#" * int(round(p * width))


def main():
    rng = np.random.default_rng(7)
    n = 5
    # a sticky chain: mostly stay, sometimes hop forward
    matrix = np.zeros((n, n))
    for s in range(n):
        matrix[s, s] = 0.7
        matrix[s, (s + 1) % n] = 0.3
    model = sl.MarkovModel(num_states=n, num_actions=1,
                           transitions=matrix[None], scenario=sl.Scenario.ESTIMATION,
                           density_decay=1.0)
    taus = np.array([1, 2, 3, 4, 5])
    seg = sl.SegmentModel(model, sl.SchedulingFunction(taus, t_max=5))
    mu = sl.steady_state(model)
    est = sl.EveEstimator(model, active=seg, prior=mu)

    print("schedule: state s waits", taus.tolist(), "steps before the next request")
    s = int(rng.choice(n, p=mu))
    print(f"(hidden truth: the chain starts at state {s + 1})\n")
    for k in range(1, 4):
        renewal = s
        tau = int(taus[renewal])
        for _ in range(tau):
            s = int(rng.choice(n, p=matrix[s]))
        est.observe(tau)
        post = est.belief_at_time(est.times[-1], 0)
        print(f"request {k}: interval was {tau} "
              f"(truth: state {renewal + 1} scheduled it, "
              f"the chain then landed on state {s + 1})")
        print(f"   posterior over the state reported at request {k}:")
        for x in range(n):
            print(f"   state {x + 1}: {post[x]:.3f} {bar(post[x])}")
        print(f"   leakage now: {est.leakage(est.times[-1], 3):.3f}\n")

    print("smoothed view of the whole past, given everything heard:")
    horizon = est.times[-1]
    # window(h, h) holds the posteriors at h, h-1, ..., 0 from one pass
    for m, bel in enumerate(reversed(est.window(horizon, horizon))):
        top = int(np.argmax(bel)) + 1
        print(f"   t={m:2d}: best guess state {top} "
              f"(confidence {bel.max():.2f})")


if __name__ == "__main__":
    main()
