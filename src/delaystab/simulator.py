"""Forward iteration, fundamental-function tabulation and kernel sums.

The fundamental function X(n, k) solves the homogeneous equation with
x(n) = 0 for n < k and x(k) = 1; every solution decomposes over it, and
the checkers' witness quantities (kernel-weighted sums, the a-priori
product bound) are computed here.

Every entry point works on the steps from its start n0 to its horizon N
and reads the coefficient and lag tables on [n0, N - 1] from ``_tables``,
which refuses N < n0; the kernels in ``_kernels`` cap their own buffers.
``simulate``, ``fundamental`` and ``lemma6_sum`` step the recurrence
through one helper, ``_step``, from a history with zeros before it.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from . import _kernels
from ._kernels import KernelMemoryError
from .equation import Equation, InitialData
from .seqexpr import SeqExpr, eval_range, evaluation_scope

__all__ = [
    "Trajectory",
    "Kernel",
    "KernelMemoryError",
    "simulate",
    "fundamental",
    "kernel",
    "cauchy_apply",
    "representation_check",
    "product_bound",
    "lemma6_sum",
    "pituk_sum",
    "format_csv",
    "write_atomic",
    "write_trajectory_csv",
]


@dataclass(frozen=True, eq=False)
class Trajectory:
    n0: int
    values: np.ndarray  # x(n0), x(n0+1), ..., x(N)


@dataclass(frozen=True, eq=False)
class Kernel:
    """Dense table X(n, k) for n0 <= k <= n <= N (zeros above diagonal)."""

    n0: int
    N: int
    values: np.ndarray  # values[n - n0, k - n0]

    def at(self, n: int, k: int) -> float:
        if n < k:
            return 0.0
        if k < self.n0 or n > self.N:
            raise IndexError(f"X({n}, {k}) lies outside the table [{self.n0}, {self.N}]")
        return float(self.values[n - self.n0, k - self.n0])


def _tables(eq: Equation, n0: int, N: int) -> tuple[np.ndarray, np.ndarray]:
    """The coefficient and lag tables of the steps from n0 to N, on
    [n0, N - 1]: every entry point's window, refused when N < n0."""
    if N < n0:
        raise ValueError(f"horizon {N} precedes start {n0}")
    return eq.coeff_table(n0, N - 1), eq.lag_table(n0, N - 1)


def _step(eq: Equation, coeffs: np.ndarray, lags: np.ndarray, forcing: np.ndarray,
          history: Sequence[float]) -> np.ndarray:
    """x(n0), ..., x(N) stepped from ``history`` (x(n0 - len + 1) .. x(n0))
    with zeros before it.  The buffer keeps depth = min(T, steps + len - 1)
    entries before n0: zeros, then the history's last values up to x(n0),
    as no step reads x before n0 - T.  ``lags``, the caller's own table, is
    clipped at depth in place: a lag past the history reads one of those
    zeros, so a zero history is only as deep as its window."""
    steps, h = len(forcing), len(history)
    depth = min(eq.T, steps + h - 1)
    x = np.zeros(depth + steps + 1)
    x[max(depth + 1 - h, 0): depth + 1] = history[-(depth + 1):]
    np.minimum(lags, depth, out=lags)
    _kernels.step_recurrence(coeffs, lags, forcing, x, depth, steps)
    return x[depth:]


def simulate(eq: Equation, init: InitialData, N: int) -> Trajectory:
    """Iterate the forced equation from ``init``, zeros before it, to N."""
    coeffs, lags = _tables(eq, init.n0, N)
    forcing = (eval_range(eq.forcing, init.n0, N - 1) if eq.forcing is not None
               else np.zeros(N - init.n0))
    return Trajectory(init.n0, _step(eq, coeffs, lags, forcing, init.values))


def fundamental(eq: Equation, k: int, N: int) -> np.ndarray:
    """Column X(n, k) for n in [k, N], stepped from the history 1 at k and
    0 before with ``simulate``'s zero forcing, so bit for bit its column."""
    coeffs, lags = _tables(eq, k, N)
    return _step(eq, coeffs, lags, np.zeros(N - k), [1.0])


def kernel(eq: Equation, n0: int, N: int) -> Kernel:
    """All columns k in [n0, N] as a dense table."""
    return Kernel(n0, N, _kernels.kernel_table(*_tables(eq, n0, N), N - n0 + 1))


def cauchy_apply(eq: Equation, f: SeqExpr, n0: int, N: int) -> Trajectory:
    """y(n) = sum_{k=n0}^{n-1} X(n, k+1) f(k) with y(n0) = 0.

    This is the zero-initial-data response to the forcing f, assembled
    from kernel columns rather than by forward iteration, so it can be
    cross-checked against simulate().
    """
    coeffs, lags = _tables(eq, n0, N)
    weights = eval_range(f, n0, N - 1)
    return Trajectory(n0, _kernels.weighted_kernel_sums(coeffs, lags, weights, False))


def lemma6_sum(eq: Equation, n0: int, N: int) -> np.ndarray:
    """S(n) = sum_{k=n0}^{n-1} X(n, k+1) * sum_l a_l(k) over [n0, N].

    Under nonnegative coefficients and a positive kernel, S stays in
    [0, 1] from n0 + T on.  By the representation formula S is the
    solution with zero history and forcing sum_l a_l(k), so it is one
    forward iteration.
    """
    coeffs, lags = _tables(eq, n0, N)
    return _step(eq, coeffs, lags, coeffs.sum(axis=0), [0.0])


def pituk_sum(eq: Equation, n0: int, N: int) -> np.ndarray:
    """P(n) = sum_{j=n0}^{n-1} |X(n, j+1)|; bounded P indicates the
    summable-kernel property behind perturbation-robust stability."""
    coeffs, lags = _tables(eq, n0, N)
    return _kernels.weighted_kernel_sums(coeffs, lags, np.ones(N - n0), True)


@np.errstate(over="ignore")  # an overflowed bound is inf, still a bound
def product_bound(eq: Equation, k: int, N: int) -> np.ndarray:
    """B(n) = prod_{j=k}^{n-1} (1 + sum_l |a_l(j)|); always >= |X(n, k)|."""
    coeffs, _ = _tables(eq, k, N)
    return np.concatenate(([1.0], np.cumprod(1.0 + np.abs(coeffs).sum(axis=0))))


def representation_check(eq: Equation, init: InitialData, f: Optional[SeqExpr],
                         N: int) -> float:
    """Max deviation between forward iteration and the kernel-sum
    reconstruction x(n) = X(n,n0) x(n0) + sum X(n,k+1) f(k)
    - sum X(n,k+1) sum_l a_l(k) phi(h_l(k)), phi the history cut off at n0.
    One evaluation scope serves its own tables and those of ``simulate``
    and ``fundamental``, so each coefficient is evaluated once."""
    n0, h = init.n0, len(init.values)
    with evaluation_scope():
        direct = simulate(replace(eq, forcing=f), init, N).values
        rec = fundamental(eq, n0, N) * init.values[-1]
        coeffs, lags = _tables(eq, n0, N)
        weights = eval_range(f, n0, N - 1) if f is not None else np.zeros(N - n0)
    # phi[h + i - lag] is phi(n0 + i - lag): the history, 0 before it and from n0 on
    phi = np.concatenate(([0.0], init.values[:-1], [0.0]))
    reads = phi[np.clip(h + np.arange(N - n0) - lags, 0, h)]
    for a, read in zip(coeffs, reads):
        weights = weights - a * read
    rec = rec + _kernels.weighted_kernel_sums(coeffs, lags, weights, False)
    return float(np.abs(direct - rec).max())


# ---------------------------------------------------------------------------
# Output: plot-ready CSV ("%.17g", LF endings), written atomically

# The formatter's tables, built on its first call: 10^k for k in [_K0, _K1]
# as a double-double hi + lo with hi's Dekker halves; then little-endian text
# words: "0.000" prefixes and "e+XX" suffixes by decimal exponent x + 324, the
# masks of a word's bytes below k, and per dot position q the body's bytes
# before q, its bytes after q and the dot
_K0, _K1 = -270, 308
_ASCII0 = 0x3030303030303030  # "0" in each byte of a word
_csv_words: Optional[tuple] = None


def _csv_tables() -> tuple:
    global _csv_words
    if _csv_words is None:
        ratios = [(10 ** max(k, 0), 10 ** max(-k, 0)) for k in range(_K0, _K1 + 1)]
        hi = np.array([top / bottom for top, bottom in ratios])  # int division rounds correctly
        lo = np.array([(top * den - num * bottom) / (bottom * den) for (top, bottom), (num, den)
                       in zip(ratios, map(float.as_integer_ratio, hi.tolist()))])
        s = hi * 2.0 ** -64  # exact, and far from overflow in the split
        hh = (s * 134217729.0 - (s * 134217729.0 - s)) * 2.0 ** 64
        below = [(1 << 8 * k) - 1 for k in range(9)]
        within = np.array([[below[min(max(q - 8 * i, 0), 8)] for q in range(26)]
                           for i in range(3)], np.uint64)
        lt, le = within[:, :-1], within[:, 1:]
        affix = lambda text: np.array([int.from_bytes(text(x), "little")  # noqa: E731
                                       for x in range(-324, 309)], np.uint64)
        _csv_words = (hi, hh, hi - hh, lo,
                      affix(lambda x: b"0." + b"0" * (-x - 1) if -4 <= x < 0 else b""),
                      affix(lambda x: b"" if -4 <= x < 17 else b"e%+03d" % x),
                      np.array(below, np.uint64), lt, ~le, (lt ^ le) & 0x2E2E2E2E2E2E2E2E)
    return _csv_words


def _scaled(a: np.ndarray, e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """a * 10^(16 - e) as p + r: p = fl(a * hi) and r its exact error
    (Dekker's two-product) plus a * lo."""
    hi, hh, hl, lo = (t.take(16 - e - _K0) for t in _csv_tables()[:4])
    p, t = a * hi, a * 134217729.0
    ah = t - (t - a)
    al = a - ah
    return p, ((ah * hh - p) + ah * hl + al * hh) + al * hl + a * lo


def _decimal(v: np.ndarray) -> tuple[np.ndarray, ...]:
    """(d, x, slow): |v| = d * 10^(x - 16) to 17 digits, d in [10^16, 10^17),
    or d = x = 0 at zero.  x = floor(log10 |v|) is fixed up once where p and
    r, compared apart (1e16 + -0.25 == 1e16), cross a power of ten.  ``slow``
    marks what this cannot prove: inf, nan, |v| outside the table, r within
    2^-40 of a half (rint may round otherwise than the exact product), and
    a d that rounds out of its range, as 99999999999999999.6 does."""
    a = np.abs(v)
    ok = (a >= 1e-292) & (a < 1e287)  # x in [16 - _K1, 16 - _K0]: 10^(16 - x) in the table
    a = np.where(ok, a, 1.0)  # zeros and non-finite values never reach log10
    x = np.clip(np.floor(np.log10(a)), 16 - _K1, 16 - _K0).astype(np.int64)
    p, r = _scaled(a, x)
    up, down = (p > 1e17) | (p == 1e17) & (r >= 0), (p < 1e16) | (p == 1e16) & (r < 0)
    fix = np.flatnonzero(up | down)  # log10 rounded across a power of ten
    if fix.size:
        x[fix] = np.clip(x[fix] + up[fix] - down[fix], 16 - _K1, 16 - _K0)
        p[fix], r[fix] = _scaled(a[fix], x[fix])
    q = np.rint(r)
    d = p.astype(np.int64) + q.astype(np.int64)
    slow = (~(ok | (v == 0)) | (np.abs(np.abs(r - q) - 0.5) < 2.0 ** -40)
            | (d < 10 ** 16) | (d >= 10 ** 17))
    d[v == 0] = 0
    return d.astype(np.uint64), x, slow


def _swar(y: np.ndarray) -> np.ndarray:
    """The 8 decimal digits of y < 10^8, a byte each, the first lowest."""
    y = y // 10000 | (y % 10000) << 32
    z = (y * 10486 >> 20) & 0x7F0000007F
    y = z | (y - z * 100) << 16
    z = (y * 103 >> 10) & 0xF000F000F000F
    return z | (y - z * 10) << 8


def _value_words(out: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Write ",%.17g" of each v as four NUL-padded words of ``out``: ',', the
    sign and "0." with up to three zeros; then the digits with the dot
    shifted in, and "e+XX".  Returns ``_decimal``'s mask of unproved values."""
    _, _, _, _, pre, exp, below, lt, gt, dot = _csv_tables()
    d, x, slow = _decimal(v)
    t1, t2 = _swar(d // 10 ** 8 % 10 ** 8), _swar(d % 10 ** 8)
    # significant digits: up to the last nonzero byte of t2, or else of t1
    last = [(np.frexp(t.astype(np.float64))[1] + 7) >> 3 for t in (t1, t2)]
    nd = 1 + np.where(t2 != 0, 8 + last[1], last[0])
    fixed = (x >= -4) & (x < 17)
    shown = np.where(fixed, np.maximum(nd, x + 1), nd)  # an integer part prints whole
    q = np.where(fixed, x + 1, 1)
    q = np.where((nd > q) & (q > 0), q, 24)  # the dot follows q digits if digits follow
    out[:, 0] = 44 | np.signbit(v).astype(np.uint64) * 45 << 8 | pre.take(x + 324) << 16
    carry = 0
    for i, w in enumerate((d // 10 ** 16 | t1 << 8, t1 >> 56 | t2 << 8, t2 >> 56)):
        w = w + _ASCII0 & below.take(np.clip(shown - 8 * i, 0, 8))
        out[:, i + 1] = w & lt[i].take(q) | (w << 8 | carry) & gt[i].take(q) | dot[i].take(q)
        carry = w >> 56
    out[:, 3] |= exp.take(x + 324) << 16
    return slow


def format_csv(header: str, n0: int, *columns: np.ndarray) -> str:
    """The header line, then one row "n,c_1(n),..." for n = n0, n0 + 1, ...,
    |n| < 2^53.  Values print as "%.17g": up to 17 significant digits,
    trailing zeros dropped, which read every float64 back exactly.

    Each chunk of ``_kernels.STEP_CHUNK`` rows is one array of NUL-padded
    uint64 words, whose bytes less the NULs are its text: no Python object
    is made per row or value.  ``_decimal`` rounds with Dekker's exact
    product against a double-double 10^k, and what it cannot prove takes
    "%.17g" itself, so that format stays the definition.
    """
    width, size = len(columns), len(columns[0])
    if size and max(abs(n0), abs(n0 + size - 1)) >= 2 ** 53:
        raise ValueError(f"row index past 2^53 in [{n0}, {n0 + size - 1}]")
    below = _csv_tables()[6]
    parts = [header + "\n"]
    for c0 in range(0, size, _kernels.STEP_CHUNK):
        c1 = min(c0 + _kernels.STEP_CHUNK, size)
        buf = np.empty((c1 - c0, 3 + 4 * width), "<u8")
        n = np.arange(n0 + c0, n0 + c1, dtype=np.int64)
        m = np.abs(n).astype(np.uint64)
        # the sign, then m's 16 digits less their leading zeros
        zeros = 15 - np.searchsorted(10 ** np.arange(1, 16, dtype=np.uint64), m, side="right")
        buf[:, 0] = (n < 0).astype(np.uint64) * 45
        for i, part in enumerate((m // 10 ** 8, m % 10 ** 8)):
            buf[:, 1 + i] = _swar(part) + _ASCII0 & ~below.take(np.clip(zeros - 8 * i, 0, 8))
        for j, c in enumerate(columns):
            field, v = buf[:, 3 + 4 * j: 7 + 4 * j], np.asarray(c[c0:c1], np.float64)
            idx = np.flatnonzero(_value_words(field, v))
            if idx.size:
                text = "\n,%.17g" * idx.size % tuple(v[idx].tolist())
                texts = np.array(text.encode().split(b"\n")[1:], "S32")
                field[idx] = texts.view("<u8").reshape(-1, 4)
        buf[:, -1] |= np.uint64(10 << 56)
        parts.append(buf.tobytes().translate(None, b"\0").decode("ascii"))
    return "".join(parts)


def write_atomic(path: str, text: str) -> None:
    """Write ``text`` to a new file beside ``path``, then rename it over
    ``path``: a failed write leaves the old file and no temporary, and its
    error names ``path``.  The file gets the mode ``open`` gives a new one
    (0o666 less the umask)."""
    directory, name = os.path.split(os.path.abspath(path))
    tmp = os.path.join(directory, f".{name}.{os.urandom(8).hex()}.tmp")
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        try:
            with os.fdopen(fd, "w", newline="\n") as fh:
                fh.write(text)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError as exc:
        if exc.filename != tmp:
            raise
        # name the path asked for: the temporary is an implementation detail
        raise type(exc)(exc.errno, exc.strerror, path) from None


def write_trajectory_csv(traj: Trajectory, path: str) -> None:
    write_atomic(path, format_csv("n,value", traj.n0, traj.values))
