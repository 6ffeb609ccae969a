"""Gaussian conditional rate model and an interleaved rANS coder.

The rate estimate integrates a per-channel Gaussian over each quantization
bin. The coder consumes the same Gaussian bin probabilities, quantized to
16-bit frequencies (every interval >= 1), so measured payloads track the
estimate closely. Symbols outside a +/-4096 alphabet are coded as an escape
entry and sent raw as 4-byte values after the coded words.

Adjacent channels with small tables are coded as one symbol (alphabet
extension; Cover & Thomas, *Elements of Information Theory*, 5.4): in
channel order, channel j pairs with j + 1 when their symbol counts multiply
to at most ``_PAIR_ENTRIES``, and the pair codes under the product of their
tables. A *coded channel* is a pair or a channel coded alone; a row of the
fitted 50-column tables codes 17 symbols for its 30 channels. A pair
escapes when either member is outside its table, and both raw values go to
the escape area.

The coder runs many rANS lanes side by side (Duda, arXiv:1311.2540; Giesen,
arXiv:1402.3392): coded symbol k goes to lane ``k % lanes`` at step
``k // lanes``, and every numpy step advances all lanes at once. Lane states
live in ``[2^16, 2^32)``, so each costs 4 bytes, and renormalize by whole
16-bit words, so a lane moves at most one word per step. Byte layout:
``docs/format.md``.

A numpy step costs more per call than per lane, so a file is coded as one
latent of all its channels (``codec`` joins its streams' latents), and a
pair halves the steps of its two channels without adding lanes: ``encode``
and ``decode`` run one lane loop over a (rows, channels) symbol table under
one entropy model, with one lane set, one word area and one escape area.
The decoder finds each lane's entry from its slot with one lookup in a
per-coded-channel slot table (the rANS decoding table of Duda and Giesen), so a
step's lanes of all coded channels cost one gather. ``encode_symbols`` and
``decode_symbols`` take a quantizer schedule in place of its steps.

Tables are built in one place: ``build_tables`` returns every array both
loops read. ``_coder_state`` keeps the tables of the last model coded, keyed
by the exact float64 ``mu``, ``sigma`` and ``steps`` bytes, so the files of
one bundle build their tables once and a changed model never reuses them.

The encoder holds each coded symbol's int32 table entry, word slot and emit
flag (7 bytes), but gathers the lanes' frequencies and cumulative counts for
only ``_CHUNK`` steps at a time, from the last chunk to the first, so those
per-step tables never span the whole file.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

from .errors import DecodeError, DimMismatch, Overflow
from .quantizer import QuantSchedule

_HAVE_NUMBA = False  # read by the benchmark's environment record; no numba path exists

_FREQ_BITS = 16
_TOTAL = 1 << _FREQ_BITS
_WORD_BITS = 16
_STATE_BITS = 16
_STATE_LOW = 1 << _STATE_BITS  # lane states stay in [_STATE_LOW, _STATE_LOW << _WORD_BITS)
_LANE_ROWS = 4096  # rows per lane block; part of the format
_BLOCK_LANES = 2  # lanes per coded channel in each lane block, 4 in a latent with a pair; part of the format
_PAIR_ENTRIES = 1024  # the most symbol entries of a pair's product table; part of the format
# the encoder's index of an out-of-table symbol: above every table's entry
# count, and times a pair's largest weight (1024 div 3 = 341) plus itself below 2^24
_OUTSIDE = 1 << 14
_ESCAPE_BIAS = 1 << 31
_ALPHABET_BOUND = 4096
_SUPPORT_Z = 8.0
_PROB_FLOOR = 2.0**-40
_ESCAPED = -(1 << 62)  # a decoded escape entry's value, outside every table and escape range
_CHUNK = 256  # encoder steps whose tables are gathered at once; not part of the format


@dataclass
class GaussianEntropyModel:
    """Per-channel Gaussian likelihood parameters (sigma strictly positive)."""

    mu: np.ndarray
    sigma: np.ndarray

    def __post_init__(self):
        self.mu = np.asarray(self.mu, dtype=np.float64)
        self.sigma = np.asarray(self.sigma, dtype=np.float64)
        if np.any(self.sigma <= 0):
            raise ValueError("sigma must be positive")

    @property
    def n(self) -> int:
        return self.mu.shape[0]


def bin_bits(x: np.ndarray, mu, sigma, steps):
    """Per-element -log2 of the Gaussian mass of the width-``steps`` bin
    centred on each ``x``, the mass floored at ``_PROB_FLOOR``.

    Also returns what a gradient needs: the unfloored mass and the bin's
    standardized lower and upper edges. Shared by :func:`rate_bits` and the
    trainer's rate term, so both price a latent identically.
    """
    half = 0.5 * steps
    dev = x - mu
    z_hi = (dev + half) / sigma
    z_lo = (dev - half) / sigma
    p = ndtr(z_hi) - ndtr(z_lo)
    return -np.log2(np.maximum(p, _PROB_FLOOR)), p, z_lo, z_hi


def rate_bits(x_hat: np.ndarray, model: GaussianEntropyModel, sched: QuantSchedule) -> float:
    """Estimated bits to code ``x_hat``: -sum log2 of the Gaussian bin mass."""
    x = np.asarray(x_hat, dtype=np.float64)
    if x.shape[-1] != model.n or sched.n != model.n:
        raise DimMismatch("model/schedule/vector channel counts disagree")
    return float(np.sum(bin_bits(x, model.mu, model.sigma, sched.steps)[0]))


def _support(mu, sigma, step) -> tuple[np.ndarray, np.ndarray]:
    """Each channel's table support: its lowest symbol and its symbol count.
    The support spans 8 sigma either side of ``mu``, always holds [-1, 1],
    and is clipped to +/-4096."""
    lo = np.floor((mu - _SUPPORT_Z * sigma) / step)
    hi = np.ceil((mu + _SUPPORT_Z * sigma) / step)
    # the zero bin stays in-table even under model mismatch
    lo = np.clip(np.minimum(lo, -1), -_ALPHABET_BOUND, _ALPHABET_BOUND).astype(np.int64)
    hi = np.minimum(np.maximum(np.maximum(hi, 1), lo), _ALPHABET_BOUND).astype(np.int64)
    return lo, hi - lo + 1


def _pair_leads(size) -> np.ndarray:
    """The first channel of each coded channel, for channels of ``size``
    symbols each: in channel order, channel j pairs with j + 1 when
    ``size[j] * size[j + 1] <= _PAIR_ENTRIES``, and is coded alone otherwise."""
    leads, j = [], 0
    while j < len(size):
        leads.append(j)
        j += 2 if j + 1 < len(size) and size[j] * size[j + 1] <= _PAIR_ENTRIES else 1
    return np.array(leads, dtype=np.int64)


def _model_steps(model: GaussianEntropyModel, steps) -> np.ndarray:
    """``steps`` as float64, one per channel of ``model``."""
    step = np.asarray(steps, dtype=np.float64)
    if step.shape != model.mu.shape:
        raise DimMismatch("model/schedule channel counts disagree")
    return step


def pairing(model: GaussianEntropyModel, steps) -> np.ndarray:
    """The first channel of each coded channel of ``model`` and ``steps``:
    one per symbol a row codes, for its pairs and its channels coded alone."""
    return _pair_leads(_support(model.mu, model.sigma, _model_steps(model, steps))[1])


@dataclass(frozen=True)
class FreqTables:
    """Every coded channel's 16-bit frequency table, concatenated, as the
    read-only arrays both lane loops read.

    Channel j's table holds symbols ``lo[j] .. lo[j] + size[j] - 1``; it is
    member ``member[j]`` (0 or 1) of coded channel ``coded[j]``. Coded channel
    c owns the entries ``start[c] .. start[c] + entries[c]``: its symbols,
    then its escape entry. A pair's symbols are the pairs of its members'
    symbols, first member major: in-table symbols with table indices ``i``
    and ``k`` are entry ``start + i * size[second] + k``: the (channels,
    coded channels) matrix ``weight`` maps each row of members' indices to
    their coded symbols' offsets.

    One pad entry of freq 2^16, cum 0 (an identity on the state) follows the
    last coded channel; idle lanes of a partial last step code it. Each coded
    channel's frequencies sum to exactly 2^16, so ``slot_entry`` holds one
    block of 2^16 uint16 per coded channel: ``slot_entry[(c << 16) + slot]``
    is the local index ``i`` of coded channel c's entry ``start[c] + i`` with
    ``cum <= slot < cum + freq``. A last, all-zero block stands for the pad.
    ``value[e, m]`` is the symbol of member m at entry ``e``, with
    ``_ESCAPED`` at escape entries, the pad, and the missing second member of
    a channel coded alone.
    """

    lo: np.ndarray
    size: np.ndarray
    coded: np.ndarray
    member: np.ndarray
    weight: np.ndarray
    start: np.ndarray
    entries: np.ndarray
    freq: np.ndarray
    cum: np.ndarray
    slot_entry: np.ndarray
    value: np.ndarray


def build_tables(model: GaussianEntropyModel, steps) -> FreqTables:
    """Frequency tables of each coded channel's plausible symbols plus
    escape, for ``model`` quantized with ``steps``. A pure function of the
    (serialized) model parameters, so encoder and decoder rebuild them
    identically.

    Memory: the tables keep 2^17 bytes of ``slot_entry`` per coded channel
    and as many for the pad; 32 bytes per entry (the pad's too) in ``freq``,
    ``cum`` and ``value``; 16 per coded channel in ``start`` and ``entries``;
    and 32 + 4 * coded channels per channel in ``lo``, ``size``, ``coded``,
    ``member`` and ``weight``. Building them peaks at most 48 bytes per
    entry, 768 per coded channel and 16 KiB above that: each coded channel's
    masses are computed in its own pass, so the peak is set by joining the
    per-coded-channel frequencies and values into the tables.
    """
    mu, sigma = model.mu, model.sigma
    step = _model_steps(model, steps)
    n = mu.size
    lo, size = _support(mu, sigma, step)
    lead = _pair_leads(size)
    members = np.diff(lead, append=n)  # per coded channel

    def mass(j):  # channel j's Gaussian mass in each of its symbols' bins
        centre, half = (lo[j] + np.arange(size[j])) * step[j], 0.5 * step[j]
        return np.maximum(ndtr((centre + half - mu[j]) / sigma[j]) - ndtr((centre - half - mu[j]) / sigma[j]), 0.0)

    freqs, values = [], []
    for a, w in zip(lead, members):
        symbols = lo[a] + np.arange(size[a])
        if w == 2:  # first member major
            p = np.multiply.outer(mass(a), mass(a + 1)).reshape(-1)
            second = lo[a + 1] + np.arange(size[a + 1])
            value = np.stack((np.repeat(symbols, second.size), np.tile(second, symbols.size)), 1)
        else:
            p = mass(a)
            value = np.stack((symbols, np.full(symbols.size, _ESCAPED)), 1)
        budget = _TOTAL - (p.size + 1)
        freq = np.floor(p * budget).astype(np.int64) + 1
        # the escape mass is 1 minus the correctly rounded sum of the masses
        esc = math.floor(max(0.0, 1.0 - math.fsum(p)) * budget) + 1
        # the deficit goes to the first most probable entry
        freq[np.argmax(p)] += _TOTAL - int(freq.sum()) - esc
        freqs += [freq, [esc]]
        values += [value, [[_ESCAPED, _ESCAPED]]]
    freq = np.concatenate(freqs + [[_TOTAL]])  # and the pad
    entries = np.array([f.size for f in freqs[::2]], dtype=np.int64)
    start = np.concatenate(([0], np.cumsum(entries + 1)[:-1]))
    owner = np.repeat(np.arange(lead.size), entries + 1)
    cum = np.append(np.cumsum(freq[:-1]) - freq[:-1] - (owner << _FREQ_BITS), 0)
    # each entry's index within its coded channel, the pad's 0, repeated once
    # per slot: coded channel c's 2^16 slots, then the pad's
    local = np.append(np.arange(owner.size) - start[owner], 0).astype(np.uint16)
    slot_entry = np.repeat(local, freq)
    del owner, local  # before the values are joined
    coded = np.repeat(np.arange(lead.size), members)
    weight = np.zeros((n, lead.size), dtype=np.float32)
    weight[np.arange(n), coded] = 1
    pair = np.flatnonzero(members == 2)
    weight[lead[pair], pair] = size[lead[pair] + 1]
    tables = FreqTables(
        lo=lo,
        size=size,
        coded=coded,
        member=np.arange(n) - lead[coded],
        weight=weight,
        start=start,
        entries=entries,
        freq=freq.astype(np.uint64),
        cum=cum.astype(np.uint64),
        slot_entry=slot_entry,
        value=np.concatenate(values + [[[_ESCAPED, _ESCAPED]]]),
    )
    for a in vars(tables).values():
        a.flags.writeable = False
    return tables


_coder_cache: tuple = (None, None)  # (content key, FreqTables) of the last model coded


def _coder_state(model: GaussianEntropyModel, steps) -> FreqTables:
    """The tables of ``model`` and ``steps``, built on a miss of the one-entry
    cache. The key is every byte ``build_tables`` reads, with the length of
    each array, so equal keys mean equal tables. Threads that miss together
    each build; the cache keeps whichever tables were written last."""
    global _coder_cache
    params = [np.asarray(a, dtype=np.float64) for a in (model.mu, model.sigma, steps)]
    key = (tuple(a.size for a in params), np.concatenate(params).tobytes())
    cached_key, tables = _coder_cache  # one read: a key never pairs with another key's tables
    if cached_key == key:
        return tables
    # free the old tables before the new ones are built, so the two are
    # never held at once
    del tables
    _coder_cache = (None, None)
    tables = build_tables(model, steps)  # the module global, so a rebinding of it sees the call
    _coder_cache = (key, tables)
    return tables


def lane_grid(rows: int, paired: bool) -> tuple[int, int]:
    """The lane rule of a ``rows``-row latent: for each whole block of
    ``_LANE_ROWS`` rows (at least one block), ``_BLOCK_LANES`` lanes per coded
    channel, twice that when a coded channel is a pair; and the steps that
    take every row. Returns ``(lanes per coded channel, steps)``."""
    width = _BLOCK_LANES * (2 if paired else 1) * max(1, rows // _LANE_ROWS)
    return width, -(-rows // width)


def encode(symbols: np.ndarray, model: GaussianEntropyModel, steps) -> bytes:
    """Entropy-code a (rows, channels) table of integer symbols as one latent
    under ``model``, whose channels are quantized with ``steps``."""
    sym = np.asarray(symbols, dtype=np.int64)
    if sym.ndim != 2 or sym.shape[1] != model.n:
        raise DimMismatch(f"symbols of shape {sym.shape} are not a table of {model.n} channels")
    rows = sym.shape[0]
    if rows == 0:
        return b""
    if sym.min() < -_ESCAPE_BIAS or sym.max() >= _ESCAPE_BIAS:
        raise Overflow("symbol exceeds 32-bit signed range")
    tables = _coder_state(model, steps)
    coded = tables.start.size
    width, n_steps = lane_grid(rows, coded < model.n)
    # each coded symbol's table entry; rows past the symbols', in a partial
    # last step, take the pad entry
    entry = np.full((n_steps * width, coded), tables.freq.size - 1, dtype=np.int32)
    # A symbol's index in its channel's table, in float32: negative below the
    # table, at least its size above it (rounding keeps the order). An
    # out-of-table index becomes _OUTSIDE, so the offset of its coded symbol
    # (``tables.weight``: a pair's first index times the second's size, plus
    # the second index) passes the table's end and clips to the escape entry.
    # Every term and partial sum is an integer below 2^24, exact in float32.
    index = np.empty(sym.shape, dtype=np.float32)
    np.subtract(sym, tables.lo, out=index, casting="unsafe")
    np.copyto(index, _OUTSIDE, where=(index < 0) | (index >= tables.size))
    offset = index @ tables.weight
    del index
    np.minimum(offset, tables.entries, out=offset)
    escaped = offset == tables.entries
    raw = sym[escaped[:, tables.coded]]  # every member of an escaped coded symbol, in symbol order
    np.add(offset, tables.start, out=entry[:rows], casting="unsafe")
    del offset, escaped
    # coded symbol k goes to lane k % lanes at step k // lanes
    entry = entry.reshape(n_steps, -1)
    words = np.empty(entry.shape, dtype=np.uint16)
    emitted = np.empty(entry.shape, dtype=bool)
    x = np.full(entry.shape[1], _STATE_LOW, dtype=np.uint64)
    q = np.empty_like(x)
    word_bits = np.uint64(_WORD_BITS)
    # rANS codes backwards, so the chunks of _CHUNK steps run from last to
    # first, each gathering only its own steps' freq and cum
    for c in reversed(range(0, n_steps, _CHUNK)):
        chunk = slice(c, c + _CHUNK)
        # one cast of the chunk's entries to intp, which a gather by int32
        # would make once per table; limit then takes over its buffer
        at = entry[chunk].astype(np.intp)
        freq, cum = tables.freq[at], tables.cum[at]
        # a state at or above this emits its low word before coding the symbol
        limit = np.left_shift(freq, _STATE_BITS - _FREQ_BITS + _WORD_BITS, out=at.view(np.uint64))
        gap = _TOTAL - freq
        chunk_words, chunk_emitted = words[chunk], emitted[chunk]
        for t in range(freq.shape[0] - 1, -1, -1):
            emit = np.greater_equal(x, limit[t], out=chunk_emitted[t])
            chunk_words[t] = x  # the low word
            np.right_shift(x, word_bits, out=x, where=emit)
            # x = (x // f) * 2^16 + x % f + c, computed as x + (x // f) * (2^16 - f) + c
            np.floor_divide(x, freq[t], out=q)
            q *= gap[t]
            x += q
            x += cum[t]
        del freq, cum, limit, gap  # before the next chunk's are made
    del entry  # before the payload's copies of the words are made
    return (
        x.astype("<u4").tobytes()
        + words[emitted].astype("<u2").tobytes()
        + (raw + _ESCAPE_BIAS).astype("<u4").tobytes()
    )


def decode(rows: int, data: bytes, model: GaussianEntropyModel, steps) -> np.ndarray:
    """Inverse of :func:`encode`: the (rows, channels) symbol table that
    ``data`` codes under ``model`` and ``steps``.

    The payload is checked against ``rows`` before anything of that size is
    allocated: it must hold every lane's 4-byte state, so a payload of B
    bytes decodes to fewer than 1024 * B symbols.
    """
    channels = model.n
    if not rows:
        if data:
            raise DecodeError("nonempty payload for zero rows")
        return np.zeros((0, channels), dtype=np.int64)
    # the payload must hold every lane state before a table is built
    coded = pairing(model, steps).size
    width, n_steps = lane_grid(rows, coded < channels)
    lanes = width * coded
    head = 4 * lanes
    if len(data) < head or (len(data) - head) % 2:
        raise DecodeError(f"payload of {len(data)} bytes does not fit {lanes} lane states and words")
    x = np.frombuffer(data, dtype="<u4", count=lanes).astype(np.uint64)
    if np.any(x < _STATE_LOW):  # a u32 is below _STATE_LOW << _WORD_BITS
        raise DecodeError("lane state out of range")
    area = np.frombuffer(data, dtype="<u2", offset=head).astype(np.uint64)
    tables = _coder_state(model, steps)
    slot_entry, freq, cum = tables.slot_entry, tables.freq, tables.cum
    # numpy scalars: a Python int operand costs a conversion on every step
    mask, low = np.uint64(_TOTAL - 1), np.uint64(_STATE_LOW)
    freq_bits, word_bits = np.uint64(_FREQ_BITS), np.uint64(_WORD_BITS)
    # Lane l codes coded channel l % coded. The lanes idle in a partial last
    # step code the pad, as block ``coded`` of slot_entry, so every step runs
    # on every lane. A lane's key selects its block, and its base is the
    # block's first entry.
    lane = np.arange(lanes)
    chan = lane % coded
    idle = lane >= rows * coded - (n_steps - 1) * lanes
    first = np.append(tables.start, freq.size - 1)
    full, last = ((c.astype(np.uint64) << freq_bits, first[c]) for c in (chan, np.where(idle, coded, chan)))
    step_keys = [full] * (n_steps - 1) + [last]
    entries = np.empty((n_steps, lanes), dtype=np.intp)
    need = np.empty(lanes, dtype=bool)
    pos = 0  # words read, in lane order within a step
    for t, (ck, b) in enumerate(step_keys):
        slot = x & mask
        # every index is below 2^63, so its int64 view, which indexes without
        # a cast, has its value
        e = np.add(slot_entry[(ck | slot).view(np.int64)], b, out=entries[t])
        x >>= freq_bits
        x *= freq[e]
        x += slot
        x -= cum[e]
        np.less(x, low, out=need)
        k = np.count_nonzero(need)
        if k:
            if pos + k > area.size:
                raise DecodeError("entropy payload truncated")
            x[need] = (x[need] << word_bits) | area[pos : pos + k]
            pos += k
    if np.any(x != _STATE_LOW):
        raise DecodeError("lane does not end at its initial state")
    # each channel reads its coded channel's entry; member m of entry e is
    # value[e, m], at column 2c + m of the (rows, 2 * coded) member values
    pairs = np.take(tables.value, entries.reshape(-1)[: rows * coded], axis=0).reshape(rows, 2 * coded)
    sym = np.take(pairs, 2 * tables.coded + tables.member, axis=1)
    escaped = sym == _ESCAPED  # every member of an escaped coded symbol
    n_escaped = np.count_nonzero(escaped)
    # the words read leave exactly one u32, two u16, per escaped member
    if pos + 2 * n_escaped != area.size:
        raise DecodeError("payload length does not match decoded symbols")
    if n_escaped:
        raw = np.frombuffer(data, dtype="<u4", offset=len(data) - 4 * n_escaped).astype(np.int64) - _ESCAPE_BIAS
        chan = np.nonzero(escaped)[1]
        inside = (raw >= tables.lo[chan]) & (raw < tables.lo[chan] + tables.size[chan])
        # an escaped coded symbol's raw values are consecutive, first member first
        if np.logical_and.reduceat(inside, np.flatnonzero(tables.member[chan] == 0)).any():
            raise DecodeError("escaped symbol lies inside its table")
        sym[escaped] = raw
    return sym


def encode_symbols(symbols: np.ndarray, model: GaussianEntropyModel, sched: QuantSchedule) -> bytes:
    """:func:`encode` of one latent's (rows, channels) symbols under its schedule."""
    return encode(symbols, model, sched.steps)


def decode_symbols(
    data: bytes, count: int, model: GaussianEntropyModel, sched: QuantSchedule
) -> np.ndarray:
    """Inverse of :func:`encode_symbols`; ``count`` is the total symbol count."""
    rows, extra = divmod(count, model.n)
    if extra:
        raise DecodeError(f"symbol count {count} not a multiple of {model.n} channels")
    return decode(rows, data, model, sched.steps)
