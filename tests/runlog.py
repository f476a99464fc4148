"""The decision behind every certificate of a run, for tests that tamper
with its log.

A step certificate posts its step length, not its decision, which the audit
re-derives from the certificate before it. A test that moves an output onto
some certificate needs that decision, so it takes it from the runner itself:
``run_with_decisions`` records what the runner's ``scaled_step`` returned.
``STEP_TAMPERS`` are the edits of that format the audit must catch, and
``KEY_TAMPERS`` the keys a record must not carry.
"""

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
    and the step after it no longer posts the distance it moved."""
    rec = step_certificate(records)
    rec["alpha"] = math.nextafter(rec["alpha"], math.inf)
    return rec["seq"] + 1, "step_links", "step moved"


def post_step_x(records, decisions):
    """A step certificate posts its own decision a second time."""
    rec = step_certificate(records)
    rec["x"] = decisions[rec["seq"]]
    return rec["seq"], "structure", "step certificate posts an x"


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


def add_certificate_J(kind):
    def tamper(records, schedule):
        rec = first(records, kind)
        rec["J"] = records[rec["cert_seq"]]["J"]
        return rec["seq"], f"{kind} carries 'J'"
    return tamper


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


KEY_TAMPERS = {
    "beta": add_beta,
    "reused": add_reused,
    "step-J": add_certificate_J("DecisionStep"),
    "best-J": add_certificate_J("BestUpdated"),
    "step-certificate-x-null": null_step_x,
    "unknown-key": add_unknown_key,
    "cover-size-without-cover": add_cover_size,
}
