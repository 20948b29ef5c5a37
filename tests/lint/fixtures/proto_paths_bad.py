# lint-fixture: svc/proto_paths_bad.py
"""RP401/RP405 across statement shapes: a branch that returns, raises,
breaks or continues; ``try`` with and without a handler that ends its
path; ``with … as`` and ``except … as``; an assert with a message;
augmented assignment; ``match``; and ``while``/``for`` with ``else``."""


def returned_when_forged(group, scheme, ct, private, blob, server_public):
    update = TimeBoundKeyUpdate.from_bytes(group, blob)
    if not update.verify(group, server_public):
        return None
    return scheme.decrypt(ct, private, update, server_public)


def logged_when_forged(group, scheme, ct, private, blob, server_public):
    update = TimeBoundKeyUpdate.from_bytes(group, blob)
    if not update.verify(group, server_public):
        print("forged update")
    return scheme.decrypt(ct, private, update, server_public)  # EXPECT[RP401]


def raised_when_forged(group, cache, blob, server_public):
    update = TimeBoundKeyUpdate.from_bytes(group, blob)
    if update.verify(group, server_public):
        pass
    else:
        raise ValueError("forged update")
    cache[update.time_label] = update


def skips_forged(group, cache, blobs, server_public):
    for blob in blobs:
        update = TimeBoundKeyUpdate.from_bytes(group, blob)
        if not update.verify(group, server_public):
            continue
        cache[update.time_label] = update


def stops_at_first_valid(group, cache, blobs, server_public):
    for blob in blobs:
        update = TimeBoundKeyUpdate.from_bytes(group, blob)
        if update.verify(group, server_public):
            break
        cache[update.time_label] = update  # EXPECT[RP401]


def handler_raises(group, cache, blob):
    try:
        update = TimeBoundKeyUpdate.from_bytes(group, blob)
        update.ensure_valid(group)
    except ValueError:
        raise
    cache[update.time_label] = update


def handler_falls_through(group, cache, blob):
    update = TimeBoundKeyUpdate.from_bytes(group, blob)
    try:
        update.ensure_valid(group)
    except ValueError:
        print("keeping the unchecked update")
    cache[update.time_label] = update  # EXPECT[RP401]


def with_as(group, cache, blob, lock):
    with lock as held:
        update = TimeBoundKeyUpdate.from_bytes(group, blob)
        update.ensure_valid(group)
    cache[update.time_label] = update
    with lock as held:
        update = TimeBoundKeyUpdate.from_bytes(group, blob)
    cache[update.time_label] = update  # EXPECT[RP401]


def except_as(group, cache, blob):
    update = TimeBoundKeyUpdate.from_bytes(group, blob)
    try:
        update.ensure_valid(group)
    except ValueError as exc:
        print("rejected:", exc)
        return None
    cache[update.time_label] = update


def asserted(group, scheme, ct, private, blob, server_public):
    update = TimeBoundKeyUpdate.from_bytes(group, blob)
    assert update.verify(group, server_public), "forged update"
    return scheme.decrypt(ct, private, update, server_public)


def augmented(group, cache, blobs):
    pending = []
    for blob in blobs:
        pending += [TimeBoundKeyUpdate.from_bytes(group, blob)]
    count = 0
    count += len(pending)
    cache[count] = pending  # EXPECT[RP401]


def matched(group, cache, blob, mode, server_public):
    update = TimeBoundKeyUpdate.from_bytes(group, blob)
    match mode:
        case "strict":
            update.ensure_valid(group)
        case _:
            pass
    cache[update.time_label] = update  # EXPECT[RP401]


def while_else(group, cache, blob, server_public, tries):
    update = TimeBoundKeyUpdate.from_bytes(group, blob)
    while tries:
        tries -= 1
    else:
        update.ensure_valid(group)
    cache[update.time_label] = update


def for_else(group, cache, blobs, server_public):
    updates = [TimeBoundKeyUpdate.from_bytes(group, blob) for blob in blobs]
    for update in updates:
        update.verify(group, server_public)  # EXPECT[RP405]
    else:
        pass
    cache[0] = updates  # EXPECT[RP401]


def try_else(group, cache, blob):
    update = TimeBoundKeyUpdate.from_bytes(group, blob)
    try:
        update.ensure_valid(group)
    except ValueError:
        print("rejected")
    else:
        cache[update.time_label] = update


def first_valid_or_raise(group, cache, blobs, server_public):
    for blob in blobs:
        update = TimeBoundKeyUpdate.from_bytes(group, blob)
        if update.verify(group, server_public):
            break
    else:
        raise ValueError("no valid update")
    cache[update.time_label] = update
