# lint-fixture: core/flow_paths_bad.py
"""RP201/RP202 across statement shapes: a branch that returns, raises,
breaks or continues; ``try`` with and without a handler that ends its
path; ``with … as`` and ``except … as``; an assert message; augmented
assignment; ``match``; and ``while``/``for`` with ``else``."""


def returned_in_branch(rng, flag):
    label = "public"
    if flag:
        label = random_scalar(rng)
        return 0
    print("label:", label)  # clean: the secret path returned


def raised_in_branch(rng, flag):
    label = "public"
    if flag:
        label = random_scalar(rng)
        raise ValueError("bad flag")
    print("label:", label)  # clean: the secret path raised


def broke_out_of_loop(rng, items):
    label = "public"
    for item in items:
        if item:
            label = random_scalar(rng)
            break
    print("label:", label)  # EXPECT[RP201]


def continued_in_loop(rng, items):
    label = "public"
    for item in items:
        if item:
            label = random_scalar(rng)
            continue
    print("label:", label)  # EXPECT[RP201]


def secret_decides_return(rng):
    k = random_scalar(rng)
    if k:  # EXPECT[RP202]
        return 1
    return 0


def handler_raises(rng, blob):
    label = "public"
    try:
        decode(blob)
    except ValueError:
        label = random_scalar(rng)
        raise
    print("label:", label)  # clean: the secret path re-raised


def handler_falls_through(rng, blob):
    label = "public"
    try:
        decode(blob)
    except ValueError:
        label = random_scalar(rng)
    print("label:", label)  # EXPECT[RP201]


def secret_in_try_body(rng, blob):
    try:
        k = random_scalar(rng)
        decode(blob)
    finally:
        pass
    print("k:", k)  # EXPECT[RP201]


def with_as(rng, lock):
    k = random_scalar(rng)
    with hold(lock, k) as held:
        print("held:", held)  # EXPECT[RP201]
    with hold(lock) as quiet:
        print("quiet:", quiet)


def except_as(rng, blob):
    k = random_scalar(rng)
    try:
        decode(blob)
    except ValueError as exc:
        print("decode failed:", exc)
        print("while holding", k)  # EXPECT[RP201]


def assert_message(rng):
    k = random_scalar(rng)
    assert k != 0, f"zero scalar {k}"  # EXPECT[RP201]  # EXPECT[RP202]
    assert k, "scalar drawn"  # EXPECT[RP202]


def augmented(rng, counter):
    k = random_scalar(rng)
    total = 0
    total += k
    print("total:", total)  # EXPECT[RP201]
    counter += 1
    print("counter:", counter)


def matched(rng, mode):
    k = random_scalar(rng)
    label = "public"
    match mode:
        case 1:
            label = k
        case _:
            pass
    print("label:", label)  # EXPECT[RP201]
    match k:
        case 0:
            print("zero", k)  # EXPECT[RP201]


def while_else(rng, n):
    label = "public"
    while n:
        n -= 1
    else:
        label = random_scalar(rng)
    print("label:", label)  # EXPECT[RP201]


def for_else(rng, items):
    label = "public"
    for item in items:
        if item:
            break
    else:
        label = random_scalar(rng)
    print("label:", label)  # EXPECT[RP201]


def secret_loop_condition(rng):
    k = random_scalar(rng)
    while k:  # EXPECT[RP202]
        k = k // 2


def finally_after_return(rng):
    k = random_scalar(rng)
    try:
        return g(k)
    finally:
        print(k)  # EXPECT[RP201]
        if k:  # EXPECT[RP202]
            pass
