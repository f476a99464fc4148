"""The decision behind every certificate of a run, for tests that tamper
with its log.

A log posts only what the audit cannot derive: a step certificate posts its
step length, not its decision, which the audit re-derives from the
certificate before it, and a later epoch's first certificate posts no
decision, since the epoch starts from the last one's best. A test that
needs those decisions takes them from the runner itself:
``run_with_decisions`` records what the runner passed to ``generate`` and
what its ``scaled_step`` returned. ``dropped_keys`` rebuilds the keys an
older format posted on top of that. ``STEP_TAMPERS`` are the edits of that
format the audit must catch, ``KEY_TAMPERS`` the keys a record must not
carry, ``MISSING_KEYS`` the keys it must, and ``COUNTER_TAMPERS`` the edits
of its step and epoch counts.
"""

import functools
import math

import numpy as np

from drostream import certificates, runner


def run_with_decisions(config, points):
    """``runner.run(config, points)`` and a dict from the seq of each
    certificate it posted to its decision as a list: an epoch's first
    certificate's as the runner passed it to ``generate``, a step
    certificate's as ``scaled_step`` returned it for that step."""
    hooks = {"generate": runner.generate, "scaled_step": runner.scaled_step}
    started, stepped, decisions = [], [], {}

    def generate(model, x, *args, **kwargs):
        started.append(x.copy())
        return hooks["generate"](model, x, *args, **kwargs)

    def scaled_step(*args):
        stepped.append(hooks["scaled_step"](*args))
        return stepped[-1]

    def on_event(ev):
        if ev.kind == "CertificatePosted":
            step = ev.extras["alpha"] is not None
            x = stepped[-1] if step else started[-1]
            decisions[ev.seq] = x.tolist()

    runner.generate, runner.scaled_step = generate, scaled_step
    try:
        result = runner.run(config, points, on_event)
    finally:
        runner.generate, runner.scaled_step = (hooks["generate"],
                                               hooks["scaled_step"])
    return result, decisions


def step_certificate(records):
    """The first certificate that posts a step rather than a decision."""
    return next(r for r in records
                if r["kind"] == "CertificatePosted" and "alpha" in r)


def first(records, kind, where=lambda r: True):
    return next(r for r in records if r["kind"] == kind and where(r))


def dropped_keys(records, decisions, config):
    """The keys an older format posted that the audit now derives, at the
    values it posted, by the seq of each record that posted them: each
    certificate's ``radius``, each step certificate's ``moved`` and each
    later epoch's first certificate's ``x``; each convergence's ``J``,
    ``x``, ``steps`` and ``best_seq``; and the termination's ``J``, ``x``,
    ``best_seq`` and, with a cover, ``cover_size``."""
    samples = runner.Samples(config.model.dimension_m, len(records),
                             config.concentration, config.schedule,
                             config.cover)
    out, best, steps, size = {}, None, 0, None
    for rec in records:
        seq, kind = rec["seq"], rec["kind"]
        if kind == "DataArrival":
            samples.add(rec["point"], rec["index"])
            size = rec.get("cover_size")
            continue
        if kind != "CertificatePosted":
            keys = dict(J=records[best]["J"], x=decisions[best])
            if kind == "EpochConverged":
                keys["steps"] = steps
            keys["best_seq"] = best
            if kind == "Terminated" and size is not None:
                keys["cover_size"] = size
            out[seq] = keys
            continue
        out[seq] = {"radius": samples.ball()[1]}
        if "alpha" in rec:
            out[seq]["moved"] = float(np.linalg.norm(
                np.array(decisions[seq]) - np.array(decisions[seq - 1])))
            steps += 1
            if rec["J"] < records[best]["J"]:
                best = seq
        else:
            if "x" not in rec:
                out[seq]["x"] = decisions[seq]
            best, steps = seq, 0
    return out


def restart_from(records, decisions, config, seq):
    """Forge the first certificate of the epoch after certificate ``seq``'s
    as a run would post it whose epoch started from ``seq``'s decision:
    generated cold there, on its window. Returns the forged record's seq."""
    rec = first(records, "CertificatePosted",
                lambda r: r["l"] == records[seq]["l"] + 1)
    samples = runner.Samples(config.model.dimension_m, len(records),
                             config.concentration, config.schedule,
                             config.cover)
    for arrival in records[:rec["seq"]]:
        if arrival["kind"] == "DataArrival":
            samples.add(arrival["point"], arrival["index"])
    window, radius = samples.ball()
    cert = certificates.generate(config.model, np.array(decisions[seq]),
                                 window, radius, config.tolerances.eps1)
    rec.update(J=cert.j_eps1, eta=cert.eta,
               y=certificates.plan_entries(cert.y_eps1))
    return rec["seq"]


def converge_a_step_early(records):
    """Post the first epoch's convergence before its last step certificate,
    at the step count before that step; returns the two records' seqs."""
    end = first(records, "EpochConverged")
    i = end["seq"]
    step = records[i - 1]
    records[i - 1], records[i] = end, step
    end.update(seq=i - 1, r=step["r"] - 1)
    step["seq"] = i
    return i - 1, i


# Each tamper edits one certificate of a log in the step format, given the
# certificates' decisions, and returns the seq of the record the audit must
# fail, the check that fails and the start of its message.

def nudge_alpha(records, decisions):
    """A step certificate's alpha one ulp up: its derived decision moves,
    and it is no longer the length of its step in the epoch."""
    rec = step_certificate(records)
    rec["alpha"] = math.nextafter(rec["alpha"], math.inf)
    return rec["seq"], "step_links", "step alpha"


def post_step_x(records, decisions):
    """A step certificate posts its own decision a second time."""
    rec = step_certificate(records)
    rec["x"] = decisions[rec["seq"]]
    return (rec["seq"], "structure",
            "CertificatePosted carries 'x', not keys of its form")


def edit_alpha(new):
    """A step certificate's alpha set to ``new(alpha)``, or dropped when
    ``new`` is None."""
    def tamper(records, decisions):
        rec = step_certificate(records)
        if new is None:
            del rec["alpha"]
        else:
            rec["alpha"] = new(rec["alpha"])
        return rec["seq"], "structure", "step certificate alpha missing"
    return tamper


def drop_epoch_start_x(records, decisions):
    """The run's first certificate posts no decision, which no earlier
    epoch's best supplies."""
    rec = first(records, "CertificatePosted")
    del rec["x"]
    return (rec["seq"], "structure",
            "certificate J, x or tol missing or malformed")


STEP_TAMPERS = {
    "alpha-ulp": nudge_alpha,
    "step-x": post_step_x,
    "no-alpha": edit_alpha(None),
    "alpha-inf": edit_alpha(lambda alpha: math.inf),
    "alpha-nan": edit_alpha(lambda alpha: math.nan),
    # a step of -alpha moves as far as the step of alpha
    "alpha-negated": edit_alpha(lambda alpha: -alpha),
    "epoch-start-no-x": drop_epoch_start_x,
}


# Each key tamper writes into one record of a plain log, given the run's
# config and its certificates' decisions, a key its kind does not carry, and
# returns that record's seq and the key the audit's structure failure
# names. A dropped key goes back with the value it used to hold.

def add_beta(records, config, decisions):
    rec = first(records, "CertificatePosted")
    rec["beta"] = config.schedule.beta(rec["n"])
    return rec["seq"], "CertificatePosted carries 'beta'"


def add_reused(records, config, decisions):
    rec = first(records, "CertificatePosted", lambda r: "y_ref" in r)
    rec["reused"] = True
    return rec["seq"], "CertificatePosted carries 'reused'"


def add_cert_seq(records, config, decisions):
    """A step certificate names itself, as its step record used to."""
    rec = step_certificate(records)
    rec["cert_seq"] = rec["seq"]
    return rec["seq"], "CertificatePosted carries 'cert_seq'"


def add_epoch_start_moved(records, config, decisions):
    """An epoch's first certificate, which takes no step, posts a moved."""
    rec = first(records, "CertificatePosted")
    rec["moved"] = 0.0
    return rec["seq"], "CertificatePosted carries 'moved'"


def null_step_x(records, config, decisions):
    rec = step_certificate(records)
    rec["x"] = None
    return rec["seq"], "CertificatePosted writes 'x' as null"


def add_unknown_key(records, config, decisions):
    rec = first(records, "DataArrival")
    rec["note"] = "hand-edited"
    return rec["seq"], "DataArrival carries 'note'"


def add_cover_size(records, config, decisions):
    """A cover key on the termination of a run without a cover."""
    rec = first(records, "Terminated")
    rec["cover_size"] = 1
    return rec["seq"], "Terminated carries 'cover_size'"


def add_epoch_key(key, value):
    """An epoch's convergence names its stop rule, or flags that the
    dropped horizon rule would have stopped elsewhere."""
    def tamper(records, config, decisions):
        rec = first(records, "EpochConverged")
        rec[key] = value
        return rec["seq"], f"EpochConverged carries '{key}'"
    return tamper


def put_back(kind, key, where=lambda r: True):
    """A key the audit derives, put back on the first record of ``kind``
    that ``where`` holds for, at the value an older format posted there."""
    def tamper(records, config, decisions):
        rec = first(records, kind, where)
        rec[key] = dropped_keys(records, decisions, config)[rec["seq"]][key]
        return rec["seq"], f"{kind} carries '{key}'"
    return tamper


KEY_TAMPERS = {
    "beta": add_beta,
    "reused": add_reused,
    "step-cert_seq": add_cert_seq,
    "epoch-start-moved": add_epoch_start_moved,
    "step-certificate-x-null": null_step_x,
    "unknown-key": add_unknown_key,
    "cover-size-without-cover": add_cover_size,
    "epoch-reason": add_epoch_key("reason", "step"),
    "epoch-rules_disagree": add_epoch_key("rules_disagree", True),
    "radius": put_back("CertificatePosted", "radius"),
    "step-moved": put_back("CertificatePosted", "moved",
                           lambda r: "alpha" in r),
    "later-epoch-start-x": put_back("CertificatePosted", "x",
                                    lambda r: r["l"] == 2),
    **{f"{name}-{key}": put_back(kind, key)
       for name, kind, keys in (
           ("epoch", "EpochConverged", ("steps", "best_seq")),
           ("final", "Terminated", ("best_seq",)))
       for key in keys},
}


# (kind, key) pairs a record of a plain log must carry; each dropped alone
# is a structure failure that names it, and no other check reads the key
MISSING_KEYS = [("CertificatePosted", "eta"), ("CertificatePosted", "lp_calls"),
                ("DataArrival", "index"), ("DataArrival", "arrival_t")]


def drop_key(records, kind, key, where=None):
    """Drop ``key`` from the first record of ``kind`` (that ``where`` holds
    for, if given); returns its seq and the start of the audit's structure
    failure."""
    rec = first(records, kind, where or (lambda r: True))
    del rec[key]
    return rec["seq"], f"{kind} lacks '{key}', keys of its form"


# Each counter tamper edits the step count r or the epoch count l of one
# record of a plain log, and returns that record's seq and the start of the
# audit's structure failure.

def set_counter(counter, value, pick):
    def tamper(records):
        rec = pick(records)
        rec[counter] = value(rec[counter])
        what = "step count r" if counter == "r" else "epoch count l"
        return rec["seq"], f"{what} {rec[counter]!r} does not follow"
    return tamper


COUNTER_TAMPERS = {
    "r-999": set_counter("r", lambda r: 999, step_certificate),
    "r-negative": set_counter("r", lambda r: -5,
                              functools.partial(first, kind="CertificatePosted")),
    # any kind's count raised by 3
    **{f"{counter}-{kind}-plus-3": set_counter(
        counter, lambda v: v + 3, functools.partial(first, kind=kind))
       for kind in ("DataArrival", "CertificatePosted", "EpochConverged",
                    "Terminated")
       for counter in "rl"},
}
