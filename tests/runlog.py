"""The decision behind every certificate of a run, for tests that tamper
with its log.

A step certificate posts its step length, not its decision, which the audit
re-derives from the certificate before it. A test that moves an output onto
some certificate needs that decision, so it takes it from the runner itself:
``run_with_decisions`` records what the runner's ``scaled_step`` returned.
``STEP_TAMPERS`` are the edits of that format the audit must catch,
``KEY_TAMPERS`` the keys a record must not carry, ``MISSING_KEYS`` the keys
it must, and ``COUNTER_TAMPERS`` the edits of its step and epoch counts.
"""

import functools
import math

from drostream import runner


def run_with_decisions(config, points):
    """``runner.run(config, points)`` and a dict from the seq of each
    certificate it posted to its decision as a list: an epoch's first
    certificate's as posted, a step certificate's as ``scaled_step``
    returned it for that step."""
    step = runner.scaled_step
    stepped, decisions = [], {}

    def scaled_step(*args):
        stepped.append(step(*args))
        return stepped[-1]

    def on_event(ev):
        if ev.kind == "CertificatePosted":
            x = ev.x if ev.x is not None else stepped[-1].tolist()
            decisions[ev.seq] = x

    runner.scaled_step = scaled_step
    try:
        result = runner.run(config, points, on_event)
    finally:
        runner.scaled_step = step
    return result, decisions


def step_certificate(records):
    """The first certificate that posts a step rather than a decision."""
    return next(r for r in records
                if r["kind"] == "CertificatePosted" and "x" not in r)


# Each tamper edits one certificate of a log in the step format, given the
# certificates' decisions, and returns the seq of the record the audit must
# fail, the check that fails and the start of its message.

def nudge_alpha(records, decisions):
    """A step certificate's alpha one ulp up: its derived decision moves,
    and it no longer posts the distance it moved."""
    rec = step_certificate(records)
    rec["alpha"] = math.nextafter(rec["alpha"], math.inf)
    return rec["seq"], "step_links", "step moved"


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
    """The second epoch's first certificate posts no decision."""
    rec = next(r for r in records
               if r["kind"] == "CertificatePosted" and r["l"] == 2)
    del rec["x"]
    return (rec["seq"], "structure",
            "certificate J, x, tol or radius missing or malformed")


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
# confidence schedule, a key its kind does not carry, and returns that
# record's seq and the key the audit's structure failure names. A dropped
# key goes back with the value it used to hold.

def first(records, kind, where=lambda r: True):
    return next(r for r in records if r["kind"] == kind and where(r))


def add_beta(records, schedule):
    rec = first(records, "CertificatePosted")
    rec["beta"] = schedule.beta(rec["n"])
    return rec["seq"], "CertificatePosted carries 'beta'"


def add_reused(records, schedule):
    rec = first(records, "CertificatePosted", lambda r: "y_ref" in r)
    rec["reused"] = True
    return rec["seq"], "CertificatePosted carries 'reused'"


def add_cert_seq(records, schedule):
    """A step certificate names itself, as its step record used to."""
    rec = step_certificate(records)
    rec["cert_seq"] = rec["seq"]
    return rec["seq"], "CertificatePosted carries 'cert_seq'"


def add_epoch_start_moved(records, schedule):
    """An epoch's first certificate, which takes no step, posts a moved."""
    rec = first(records, "CertificatePosted", lambda r: "x" in r)
    rec["moved"] = 0.0
    return rec["seq"], "CertificatePosted carries 'moved'"


def null_step_x(records, schedule):
    rec = step_certificate(records)
    rec["x"] = None
    return rec["seq"], "CertificatePosted writes 'x' as null"


def add_unknown_key(records, schedule):
    rec = first(records, "DataArrival")
    rec["note"] = "hand-edited"
    return rec["seq"], "DataArrival carries 'note'"


def add_cover_size(records, schedule):
    """A cover key on the termination of a run without a cover."""
    rec = first(records, "Terminated")
    rec["cover_size"] = 1
    return rec["seq"], "Terminated carries 'cover_size'"


def add_epoch_key(key, value):
    """An epoch's convergence names its stop rule, or flags that the
    dropped horizon rule would have stopped elsewhere."""
    def tamper(records, schedule):
        rec = first(records, "EpochConverged")
        rec[key] = value
        return rec["seq"], f"EpochConverged carries '{key}'"
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
}


# (kind, key) pairs a record of a plain log must carry; each dropped alone
# is a structure failure that names it, and no other check reads the key
MISSING_KEYS = [("CertificatePosted", "eta"), ("CertificatePosted", "lp_calls"),
                ("DataArrival", "index"), ("DataArrival", "arrival_t")]


def drop_key(records, kind, key):
    """Drop ``key`` from the first record of ``kind``; returns its seq and
    the start of the audit's structure failure."""
    rec = first(records, kind)
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
