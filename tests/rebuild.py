"""A code cannot change once built: a test that needs a changed code
builds a new one from the old code's mappings."""

from sumnets.coding import FracLinCode


def rebuilt(code, net=None, src_mats=(), in_mats=(), dec_mats=()):
    """A new code with the r, l and field of `code`, on `net` if given:
    each mapping read from `code`, then updated with the entries given."""
    return FracLinCode(
        code.net if net is None else net, code.r, code.l, code.field,
        {**code.src_mats, **dict(src_mats)},
        {**code.in_mats, **dict(in_mats)},
        {**code.dec_mats, **dict(dec_mats)},
    )
