"""The decision behind every certificate of a run, for tests that tamper
with its log.

A log posts only what the audit cannot derive: a step certificate posts its
step length, not its decision, which the audit re-derives from the
certificate before it, and a later epoch's first certificate posts no
decision, since the epoch starts from the last one's best. A test that
needs those decisions takes them from the runner itself:
``run_with_decisions`` records what the runner passed to ``generate`` and
what its ``scaled_step`` returned. A record's position in the log is its
sequence number, which tests call its seq. ``dropped_keys`` rebuilds the
keys an older format posted on top of that.
``put_back_plan_rows_and_reuse_counts`` rebuilds the format just before
this one, and ``put_back_plan_and_cover_keys`` the keys the format before
that one posted besides. ``STEP_TAMPERS`` are the edits of this format the
audit must catch, of the facts it derives a dropped key from and of an
arrival's own keys, ``REUSE_TAMPERS`` the edits of which certificates post
a plan, ``PLAN_TAMPERS`` the edits of a plan's form, ``KEY_TAMPERS`` the
keys a record must not carry, ``MISSING_KEYS`` the keys it must, and
``COUNTER_TAMPERS`` the edits of its step and epoch counts.
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


def seq_of(records, rec):
    """The position of the record ``rec`` itself in ``records``."""
    return next(i for i, r in enumerate(records) if r is rec)


def step_certificate(records):
    """The first certificate that posts a step rather than a decision."""
    return next(r for r in records
                if r["kind"] == "CertificatePosted" and "alpha" in r)


def first(records, kind, where=lambda r: True):
    return next(r for r in records if r["kind"] == kind and where(r))


def epoch_starts(records):
    """The seqs of the certificates that start an epoch: those that post no
    step length."""
    return [i for i, r in enumerate(records)
            if r["kind"] == "CertificatePosted" and "alpha" not in r]


def runner_counts(records):
    """The step and epoch counts ``(r, l)`` the runner had at each record:
    an arrival posts them, a step certificate takes the next step and an
    epoch's first certificate begins the next epoch."""
    out, r, l, started = [], 0, 0, 0
    for rec in records:
        if rec["kind"] == "DataArrival":
            r, l = rec["r"], rec["l"]
        elif rec["kind"] == "CertificatePosted" and "alpha" in rec:
            r += 1
        elif rec["kind"] == "CertificatePosted":
            started += 1
            l = started
        out.append((r, l))
    return out


def ball_at(records, config, seq):
    """The window and radius of the certificate at ``seq``:
    ``Samples.ball()`` over the arrivals before it."""
    samples = runner.Samples(config.model.dimension_m, len(records),
                             config.concentration, config.schedule,
                             config.cover)
    for arrival in records[:seq]:
        if arrival["kind"] == "DataArrival":
            samples.add(arrival["point"], arrival["index"])
    return samples.ball()


def dropped_keys(records, decisions, config):
    """The keys an older format posted that the audit now derives, at the
    values it posted, by the seq of each record that posted them: every
    record's ``seq`` and sample count ``n``, and the step and epoch counts
    ``r`` and ``l`` of every record but an arrival; with a cover, each
    arrival's ``cover_opened`` and ``cover_size``, replayed through
    ``Samples``; each certificate's ``radius``, each step certificate's
    ``moved``, each reuse's ``y_ref``, the seq of the latest certificate
    that posted a plan ``y``, and its work counts ``REUSE_COUNTS``, and
    each later epoch's first certificate's ``x``; each convergence's ``J``,
    ``x``, ``steps`` and ``best_seq``; and the termination's ``J``, ``x``,
    ``best_seq`` and, with a cover, ``cover_size``. A certificate's gap
    ``eta`` is not among them: the audit measures it from the plan."""
    samples = runner.Samples(config.model.dimension_m, len(records),
                             config.concentration, config.schedule,
                             config.cover)
    out, best, steps, plan = {}, None, 0, None
    for seq, (rec, (r, l)) in enumerate(zip(records, runner_counts(records))):
        kind = rec["kind"]
        size = samples.cover_size
        if kind == "DataArrival":
            samples.add(rec["point"], rec["index"])
            out[seq] = {"seq": seq, "n": samples.n}
            if size is not None:
                out[seq].update(cover_opened=samples.cover_size > size,
                                cover_size=samples.cover_size)
            continue
        keys = out[seq] = {"seq": seq, "n": samples.n, "r": r, "l": l}
        if kind != "CertificatePosted":
            keys.update(J=records[best]["J"], x=decisions[best])
            if kind == "EpochConverged":
                keys["steps"] = steps
            keys["best_seq"] = best
            if kind == "Terminated" and size is not None:
                keys["cover_size"] = size
            continue
        keys["radius"] = samples.ball()[1]
        if "y" in rec:
            plan = seq
        else:
            keys.update(y_ref=plan, **REUSE_COUNTS)
        if "alpha" in rec:
            keys["moved"] = float(np.linalg.norm(
                np.array(decisions[seq]) - np.array(decisions[seq - 1])))
            steps += 1
            if rec["J"] < records[best]["J"]:
                best = seq
        else:
            if "x" not in rec:
                keys["x"] = decisions[seq]
            best, steps = seq, 0
    return out


# what the format before this one posted on a reuse, in the order it wrote
# them: its work, which is always one revalidation search and no hull solve
REUSE_COUNTS = {"lp_calls": 1, "cp_calls": 0, "afwa_iters": 0}


def put_back_plan_rows_and_reuse_counts(records, config):
    """``records`` as the format before this one wrote them: each plan ``y``
    as its nonzero ``[k, j, value]`` rows in row-major order, and each
    reuse's ``REUSE_COUNTS``, each record's keys in ``RECORD_KEYS`` order."""
    m = config.model.dimension_m
    out = []
    for rec in records:
        values = dict(rec)
        if "y" in rec:
            values["y"] = [[*divmod(i, m), v] for i, v in zip(*rec["y"])]
        elif rec["kind"] == "CertificatePosted":
            values.update(REUSE_COUNTS)
        out.append({key: values[key] for key in
                    runner.COMMON_KEYS + runner.RECORD_KEYS[rec["kind"]]
                    if key in values})
    return out


# the keys the format two before this one wrote last, in the order it wrote
# them: an arrival's cover keys, with a cover, and a reuse's plan reference
PLAN_AND_COVER_KEYS = {"DataArrival": ("cover_opened", "cover_size"),
                       "CertificatePosted": ("y_ref",)}


def put_back_plan_and_cover_keys(records, decisions, config):
    """``records`` with each arrival's cover keys and each reuse's ``y_ref``
    put back, last and at the values they held, as the format two before
    this one wrote them on top of ``put_back_plan_rows_and_reuse_counts``."""
    keys = dropped_keys(records, decisions, config)
    return [{**rec, **{key: keys[seq][key]
                       for key in PLAN_AND_COVER_KEYS.get(rec["kind"], ())
                       if key in keys[seq]}}
            for seq, rec in enumerate(records)]


def restart_from(records, decisions, config, seq):
    """Forge the first certificate of the epoch after certificate ``seq``'s
    as a run would post it whose epoch started from ``seq``'s decision:
    generated cold there, on its window. Returns the forged record's seq."""
    start = next(i for i in epoch_starts(records) if i > seq)
    window, radius = ball_at(records, config, start)
    cert = certificates.generate(config.model, np.array(decisions[seq]),
                                 window, radius, config.tolerances.eps1)
    records[start].update(J=cert.j_eps1,
                          y=certificates.plan_entries(cert.y_eps1))
    return start


def converge_a_step_early(records):
    """Post the first epoch's convergence before its last step certificate;
    returns the two records' seqs."""
    i = seq_of(records, first(records, "EpochConverged"))
    records[i - 1], records[i] = records[i], records[i - 1]
    return i - 1, i


# Each tamper edits one certificate of a log in the step format, given the
# run's config and the certificates' decisions, and returns the seq of the
# record the audit must fail, the check that fails and the start of its
# message.

def nudge_alpha(records, config, decisions):
    """A step certificate's alpha one ulp up: its derived decision moves,
    and it is no longer the length of its step in the epoch."""
    rec = step_certificate(records)
    rec["alpha"] = math.nextafter(rec["alpha"], math.inf)
    return seq_of(records, rec), "step_links", "step alpha"


def post_step_x(records, config, decisions):
    """A step certificate posts its own decision a second time."""
    rec = step_certificate(records)
    seq = seq_of(records, rec)
    rec["x"] = decisions[seq]
    return (seq, "structure",
            "CertificatePosted carries 'x', not keys of its form")


def edit_alpha(new):
    """A step certificate's alpha set to ``new(alpha)``, or dropped when
    ``new`` is None."""
    def tamper(records, config, decisions):
        rec = step_certificate(records)
        if new is None:
            del rec["alpha"]
        else:
            rec["alpha"] = new(rec["alpha"])
        return (seq_of(records, rec), "structure",
                "step certificate alpha missing")
    return tamper


def drop_epoch_start_x(records, config, decisions):
    """The run's first certificate posts no decision, which no earlier
    epoch's best supplies."""
    rec = first(records, "CertificatePosted")
    del rec["x"]
    return (seq_of(records, rec), "structure",
            "certificate J, x or tol missing or malformed")


# The tampers below edit a fact from which the audit derives a key the log
# no longer posts.

def move_across_an_arrival(records, config, decisions):
    """The first epoch's last step certificate moves past the arrival after
    the epoch's convergence: its sample count, derived from the arrivals
    before it, is no longer the one of the certificate before it."""
    end = seq_of(records, first(records, "EpochConverged"))
    step = records.pop(end - 1)
    arrival = next(i for i in range(end - 1, len(records))
                   if records[i]["kind"] == "DataArrival")
    records.insert(arrival + 1, step)
    return (arrival + 1, "structure",
            "step certificate does not follow a certificate on its window")


def swap_two_steps(records, config, decisions):
    """A step certificate swapped with the step certificate before it: each
    posts the other's step length at the other's place in the epoch."""
    i = next(i for i, (a, b) in enumerate(zip(records, records[1:]))
             if "alpha" in a and "alpha" in b)
    records[i], records[i + 1] = records[i + 1], records[i]
    return i, "step_links", "step alpha"


def widen_a_gap(records, config, decisions):
    """The first refresh's largest plan entry halved, with its ``J``
    re-priced at the edited plan: the value holds, but the plan is no
    longer a worst case within the posted tolerance."""
    rec = first(records, "CertificatePosted", lambda r: "y" in r)
    seq = seq_of(records, rec)
    values = rec["y"][1]
    at = max(range(len(values)), key=lambda i: abs(values[i]))
    values[at] /= 2
    window, _ = ball_at(records, config, seq)
    y = certificates.plan_from_entries(rec["y"],
                                       (window.size, window.dimension))
    rec["J"] = certificates.certificate_value(
        config.model, np.array(decisions[seq]), window, y)
    return seq, "certificate_gap", "gap "


def edit_arrival(key, new, message):
    """The last arrival's ``key`` set to ``new(arrival, arrivals)``, which
    the arrivals check fails."""
    def tamper(records, config, decisions):
        arrivals = [r for r in records if r["kind"] == "DataArrival"]
        arrivals[-1][key] = new(arrivals[-1], arrivals)
        return seq_of(records, arrivals[-1]), "arrivals", message
    return tamper


def add_arrival_cover_key(key, value):
    """The log's first arrival posts a cover key, which fails structure
    whatever its value."""
    def tamper(records, config, decisions):
        seq, message = add_first_arrival_key(key, value)(records, config,
                                                         decisions)
        return seq, "structure", message
    return tamper


STEP_TAMPERS = {
    "alpha-ulp": nudge_alpha,
    "step-x": post_step_x,
    "no-alpha": edit_alpha(None),
    "alpha-inf": edit_alpha(lambda alpha: math.inf),
    "alpha-nan": edit_alpha(lambda alpha: math.nan),
    # a step of -alpha moves as far as the step of alpha
    "alpha-negated": edit_alpha(lambda alpha: -alpha),
    "epoch-start-no-x": drop_epoch_start_x,
    "certificate-across-an-arrival": move_across_an_arrival,
    "steps-swapped": swap_two_steps,
    "plan-past-its-tolerance": widen_a_gap,
    "arrival_t-string": edit_arrival(
        "arrival_t", lambda rec, _: str(rec["arrival_t"]), "arrival time"),
    # a sample used 100 periods before it arrived
    "arrival_t-after-its-record": edit_arrival(
        "arrival_t", lambda rec, _: rec["t"] + 100.0, "arrival time"),
    "arrival_t-before-the-last": edit_arrival(
        "arrival_t", lambda rec, arrivals: arrivals[-2]["arrival_t"] - 1.0,
        "arrival time"),
    "index-string": edit_arrival(
        "index", lambda rec, _: str(rec["index"]), "sample index"),
    "index-negative": edit_arrival("index", lambda rec, _: -1,
                                   "sample index"),
    # an older format's cover keys at a value of the wrong JSON type: no
    # arrival carries them now, with a cover or without one
    "cover_opened-int": add_arrival_cover_key("cover_opened", 1),
    "cover_size-bool": add_arrival_cover_key("cover_size", True),
}


# Each reuse tamper edits a certificate's plan or the certificate before it
# in a log whose steps both refresh and reuse, and returns the seq of the
# record the audit must fail, the check that fails and the start of its
# message. A certificate without a plan y is a reuse, which the audit prices
# with the plan of the certificate before it, on the same window.

def reuse_after_an_arrival(records):
    """The epoch start before the first reuse that follows one is deleted,
    so the reuse directly follows an arrival: no plan is on its window."""
    start = next(i for i in epoch_starts(records)
                 if records[i + 1]["kind"] == "CertificatePosted"
                 and "y" not in records[i + 1])
    del records[start]
    return (start, "structure",
            "step certificate does not follow a certificate on its window")


def epoch_start_without_y(records):
    """The second epoch's first certificate loses its plan: a reuse right
    after an arrival, with no plan on its window to keep."""
    start = epoch_starts(records)[1]
    del records[start]["y"]
    return start, "structure", "reuse with no plan on its window"


def as_reuse(rec):
    """Drop a refresh's plan and work counts, which a reuse does not post."""
    for key in ("y", *REUSE_COUNTS):
        del rec[key]


def refresh_without_y(records):
    """The first step refresh loses its plan and work counts: the audit
    prices it with the plan before it, as a reuse, which posts eps_sa, not
    its eps1."""
    rec = first(records, "CertificatePosted",
                lambda r: "alpha" in r and "y" in r)
    as_reuse(rec)
    return seq_of(records, rec), "certificate_gap", "tolerance "


def reuse_posts_y(records):
    """The first reuse posts its work and the plan before it as its own, at
    a reuse's tolerance eps_sa: a certificate that posts a plan is a
    refresh, which posts eps1."""
    seq = seq_of(records, first(records, "CertificatePosted",
                                lambda r: "y" not in r))
    records[seq].update(REUSE_COUNTS, y=next(
        records[i]["y"] for i in range(seq, 0, -1) if "y" in records[i]))
    return seq, "certificate_gap", "tolerance "


REUSE_TAMPERS = {
    "reuse-after-an-arrival": reuse_after_an_arrival,
    "epoch-start-without-y": epoch_start_without_y,
    "refresh-without-y": refresh_without_y,
    "reuse-posts-y": reuse_posts_y,
}


# Each plan tamper rewrites the plan ``[indices, values]`` of a log's last
# refresh, given its window's size p * m and dimension m, into a form the
# audit cannot decode, and returns the start of the audit's structure
# failure there.

def edit_plan(edit, message):
    def tamper(records, config):
        seq = max(i for i, r in enumerate(records) if "y" in r)
        window, _ = ball_at(records, config, seq)
        indices, values = records[seq]["y"]
        records[seq]["y"] = edit(indices, values,
                                 window.size * window.dimension,
                                 window.dimension)
        return seq, f"plan {message}"
    return tamper


PLAN_TAMPERS = {
    "index-bool": edit_plan(lambda i, v, size, m: [[True, *i[1:]], v],
                            "index not an integer"),
    "index-float": edit_plan(lambda i, v, size, m: [[float(i[0]), *i[1:]], v],
                             "index not an integer"),
    "index-negative": edit_plan(lambda i, v, size, m: [[-1, *i[1:]], v],
                                "index outside the window"),
    "index-at-the-window-size": edit_plan(
        lambda i, v, size, m: [[*i[:-1], size], v],
        "index outside the window"),
    "indices-out-of-order": edit_plan(
        lambda i, v, size, m: [i[::-1], v],
        "indices repeat or leave row-major order"),
    "index-repeated": edit_plan(
        lambda i, v, size, m: [[i[0], *i[:-1]], v],
        "indices repeat or leave row-major order"),
    "unequal-lengths": edit_plan(
        lambda i, v, size, m: [i, v[:-1]],
        "not [indices, values], two lists of equal length"),
    "value-string": edit_plan(lambda i, v, size, m: [i, [str(v[0]), *v[1:]]],
                              "value not a number"),
    "value-bool": edit_plan(lambda i, v, size, m: [i, [True, *v[1:]]],
                            "value not a number"),
    "value-too-large": edit_plan(lambda i, v, size, m: [i, [10**400, *v[1:]]],
                                 "value too large for a float"),
    # the form before this one: each nonzero entry as a [k, j, value] row
    "older-rows": edit_plan(
        lambda i, v, size, m: [[*divmod(at, m), x] for at, x in zip(i, v)],
        "not [indices, values], two lists of equal length"),
}


# Each key tamper writes into one record of a plain log, given the run's
# config and its certificates' decisions, a key its kind does not carry, and
# returns that record's seq and the key the audit's structure failure
# names. A dropped key goes back with the value it used to hold.

def add_beta(records, config, decisions):
    rec = first(records, "CertificatePosted")
    seq = seq_of(records, rec)
    n = dropped_keys(records, decisions, config)[seq]["n"]
    rec["beta"] = config.schedule.beta(n)
    return seq, "CertificatePosted carries 'beta'"


def add_reused(records, config, decisions):
    rec = first(records, "CertificatePosted", lambda r: "y" not in r)
    rec["reused"] = True
    return seq_of(records, rec), "CertificatePosted carries 'reused'"


def add_cert_seq(records, config, decisions):
    """A step certificate names itself, as its step record used to."""
    rec = step_certificate(records)
    rec["cert_seq"] = seq_of(records, rec)
    return rec["cert_seq"], "CertificatePosted carries 'cert_seq'"


def add_epoch_start_moved(records, config, decisions):
    """An epoch's first certificate, which takes no step, posts a moved."""
    rec = first(records, "CertificatePosted")
    rec["moved"] = 0.0
    return seq_of(records, rec), "CertificatePosted carries 'moved'"


def add_eta(records, config, decisions):
    """A certificate posts a gap within its tolerance, which the audit
    measures itself."""
    rec = first(records, "CertificatePosted")
    rec["eta"] = rec["tol"] / 2
    return seq_of(records, rec), "CertificatePosted carries 'eta'"


def null_step_x(records, config, decisions):
    rec = step_certificate(records)
    rec["x"] = None
    return seq_of(records, rec), "CertificatePosted writes 'x' as null"


def add_unknown_key(records, config, decisions):
    rec = first(records, "DataArrival")
    rec["note"] = "hand-edited"
    return seq_of(records, rec), "DataArrival carries 'note'"


def add_cover_size(records, config, decisions):
    """A cover key on the termination of a run without a cover."""
    rec = first(records, "Terminated")
    rec["cover_size"] = 1
    return seq_of(records, rec), "Terminated carries 'cover_size'"


def add_first_arrival_key(key, value):
    """The log's first arrival posts a cover key. An older format posted
    ``cover_opened`` True and ``cover_size`` 1 there on a run with a cover,
    whose first arrival opens its first center."""
    def tamper(records, config, decisions):
        rec = first(records, "DataArrival")
        rec[key] = value
        return seq_of(records, rec), f"DataArrival carries '{key}'"
    return tamper


def add_epoch_key(key, value):
    """An epoch's convergence names its stop rule, or flags that the
    dropped horizon rule would have stopped elsewhere."""
    def tamper(records, config, decisions):
        rec = first(records, "EpochConverged")
        rec[key] = value
        return seq_of(records, rec), f"EpochConverged carries '{key}'"
    return tamper


def put_back(kind, key, where=lambda r: True):
    """A key the audit derives, put back on the first record of ``kind``
    that ``where`` holds for, at the value an older format posted there."""
    def tamper(records, config, decisions):
        rec = first(records, kind, where)
        seq = seq_of(records, rec)
        rec[key] = dropped_keys(records, decisions, config)[seq][key]
        return seq, f"{kind} carries '{key}'"
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
                                    lambda r: "alpha" not in r
                                    and "x" not in r),
    "y_ref": put_back("CertificatePosted", "y_ref", lambda r: "y" not in r),
    # a reuse's work is always one revalidation search
    **{f"reuse-{key}": put_back("CertificatePosted", key,
                                lambda r: "y" not in r)
       for key in REUSE_COUNTS},
    "cover_opened": add_first_arrival_key("cover_opened", True),
    "cover_size": add_first_arrival_key("cover_size", 1),
    "seq": put_back("CertificatePosted", "seq"),
    "arrival-n": put_back("DataArrival", "n"),
    "certificate-n": put_back("CertificatePosted", "n"),
    "eta": add_eta,
    "step-r": put_back("CertificatePosted", "r", lambda r: "alpha" in r),
    "epoch-start-l": put_back("CertificatePosted", "l"),
    **{f"{name}-{key}": put_back(kind, key)
       for name, kind, keys in (
           ("epoch", "EpochConverged", ("steps", "best_seq")),
           ("final", "Terminated", ("best_seq",)))
       for key in keys},
}


# (kind, key) pairs a record of a plain log must carry; each dropped alone
# is a structure failure that names it, and no other check reads the key
MISSING_KEYS = [("CertificatePosted", "lp_calls"), ("DataArrival", "index"),
                ("DataArrival", "arrival_t")]


def drop_key(records, kind, key, where=None):
    """Drop ``key`` from the first record of ``kind`` (that ``where`` holds
    for, if given); returns its seq and the start of the audit's structure
    failure."""
    rec = first(records, kind, where or (lambda r: True))
    del rec[key]
    return seq_of(records, rec), f"{kind} lacks '{key}', keys of its form"


# Each counter tamper writes the step count r or the epoch count l into one
# record of a plain log, and returns that record's seq and the start of the
# audit's structure failure: an arrival, the one kind that posts the counts,
# must post the runner's, and any other kind carries neither.

def set_counter(counter, value, pick):
    def tamper(records):
        rec = pick(records)
        seq = seq_of(records, rec)
        r, l = runner_counts(records)[seq]
        rec[counter] = value(r if counter == "r" else l)
        if rec["kind"] != "DataArrival":
            return (seq,
                    f"{rec['kind']} carries '{counter}', not keys of its form")
        what = "step count r" if counter == "r" else "epoch count l"
        return seq, f"{what} {rec[counter]!r} does not follow"
    return tamper


COUNTER_TAMPERS = {
    "r-999": set_counter("r", lambda r: 999,
                         lambda records: [r for r in records
                                          if r["kind"] == "DataArrival"][-1]),
    "r-negative": set_counter("r", lambda r: -5,
                              functools.partial(first, kind="DataArrival")),
    # any kind's count raised by 3
    **{f"{counter}-{kind}-plus-3": set_counter(
        counter, lambda v: v + 3, functools.partial(first, kind=kind))
       for kind in ("DataArrival", "CertificatePosted", "EpochConverged",
                    "Terminated")
       for counter in "rl"},
}
