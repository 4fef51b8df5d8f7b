"""Live-tensor byte accounting with a high-water mark.

Counts logical bytes of every Tensor buffer currently alive: a Tensor adds
its bytes when it is made and takes them off when it is freed. A buffer
lives while the caller or a vjp of the backward graph holds its Tensor; the
graph keeps a Tensor only if some vjp reads its data, and never keeps a bare
view of a buffer, so what the graph keeps is counted too. Used to verify
that node sub-sampling actually bounds the training footprint.
"""

_live_bytes = 0
_peak_bytes = 0


def note_alloc(nbytes: int) -> None:
    global _live_bytes, _peak_bytes
    _live_bytes += nbytes
    if _live_bytes > _peak_bytes:
        _peak_bytes = _live_bytes


def note_free(nbytes: int) -> None:
    global _live_bytes
    _live_bytes -= nbytes


def live_bytes() -> int:
    return _live_bytes


def peak_bytes() -> int:
    return _peak_bytes


def reset_peak() -> None:
    """Reset the high-water mark to the current live footprint."""
    global _peak_bytes
    _peak_bytes = _live_bytes
