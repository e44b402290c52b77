"""Time-domain reference implementations for the analytic spectra.

This module deliberately avoids the closed-form results it is meant to
check.  It integrates the mode dynamics

    dq/dt = u
    du/dt = -Gamma u - w_j^2 q + R(t) / (rho0 V),   <R R'> = 2 D delta

with the exact Gaussian transition of the linear SDE: over a step dt the
state propagates as x' = Phi x + xi with Phi = exp(A dt) and xi drawn from
the exact transition covariance Sigma(dt), the integral of
exp(A s) Q exp(A^T s) over one step.  Phi and Sigma come from one block
exponential (Van Loan, IEEE TAC 23(3), 1978, Theorem 1), which needs
neither the stationary covariance the oracle is meant to check nor a
separate form for w_j = 0.  The update is distributionally exact for any
dt, so timestep refinement changes statistics only through sampling
noise, never through bias; the stability guard below merely keeps spectra
well resolved.  Steps are taken in blocks, one ensemble member at a time:
one matrix product maps every block's draws to the noise it accumulates,
the blocks' start states follow from that noise by recursive doubling, and
one product against the stacked powers of Phi lifts every start state to
its block's states.

The reductions are streamed.  Runs go one member at a time, and each
member a chunk of steps at a time: its states are reduced as soon as they
are produced, into its sums of u^2 and q^2, and nothing but the state
passes between chunks.  A member's generator is made when the member
before it is done.  Every chunk-sized array is allocated once per run and
reused for every member and chunk, so memory grows with neither the run
length nor the ensemble, apart from each member's two sums, 16 bytes.
The traced peak of a run is about 2 MiB, and a ``validate-noise`` process
peaks at 37-39 MB of resident memory from 4 to 16384 members, of which an
interpreter that has imported numpy and parsim takes about 33 MB.
The trajectories are stored only on request.

The driven oracle appends the drive oscillator (cos wt, sin wt) to the mode
state, which makes the driven system linear with a constant generator, and
steps it one sample at a time with the exact propagator expm(M dt).  It
demodulates the response against the oscillator it carries, so it keeps no
time grid and calls no cos or sin.  Its state is four floats, so it runs in
plain Python and needs no numpy.  Both oracles take their matrix
exponentials from ``_expm``, which works on nested lists of floats:
power-of-two diagonal balancing, then Pade-13 scaling and squaring
(Higham, SIAM J. Matrix Anal. Appl. 26(4), 2005).  Balancing matters
here: the mode generator pairs entries of order w_j^2 dt with dt, and
without it the small entries of Phi come out of the squarings with
relative errors of 1e-9 to 1e-5 instead of 1e-16.

Randomness: numpy Philox (counter-based) generators, one independent
stream per ensemble member derived with SeedSequence.spawn; Gaussian
variates from Generator.standard_normal (ziggurat).  Identical
configurations therefore reproduce bit-identical statistics, whether or
not the trajectories are kept.  Ensemble reductions use compensated
summation over members so results do not depend on member order.

PSD estimates follow the package convention (see ``noise``): two-sided in
angular frequency, variance = two-sided integral of the PSD with measure
dw / pi.  ``series_variance`` is the discrete counterpart used for
Parseval checks.  ``estimate_psd`` is Welch's averaged periodogram (IEEE
Trans. Audio Electroacoust. 15(2), 1967) of kept samples, with a periodic
Hann window and half-overlapping segments; no run computes a spectrum.

The Langevin oracle and the Welch estimator import numpy when they run;
the driven oracle and ``_expm`` use the standard library alone.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .quantities import K_BOLTZMANN, Refusal, Scenario, in_range

if TYPE_CHECKING:
    import numpy as np

    from .noise import SpectrumSeries

__all__ = [
    "SdeRunConfig",
    "TrajectoryStats",
    "DrivenModeResult",
    "transition",
    "slowest_rate",
    "integrate_langevin",
    "estimate_psd",
    "series_variance",
    "integrate_driven",
]

# dt * max(damping, mode frequency) must stay at or below this
STABILITY_LIMIT = 0.05

# run length required before stationary statistics are trusted
MIN_STATIONARY_DURATIONS = 50.0

# members x (burn-in + kept) steps above which a run is refused before it
# starts: 1e3 s at 100 ns per member-step
MAX_MEMBER_STEPS = 1.0e10

# steps per chunk.  Fixed, because it fixes the rounding: at 8192 each
# member draws the same variates, but its mean u^2 moves by up to 4.4e-16
# relative and the run's mean q^2 by up to 2.2e-16
_CHUNK_STEPS = 16384
_BLOCK_STEPS = 32      # steps propagated by one matrix product

_SAMPLES_PER_PERIOD = 256  # demodulation samples per drive period
_PERIODS_PER_WINDOW = 20   # drive periods per demodulation window
# largest distance of the settled drive oscillator, which drives the mode and
# is the demodulation reference, from unit length; it grows as about 1e-17
# drive_omega settle_time, and the phasor's error with it
_UNIT_TOLERANCE = 1.0e-6


@dataclass(frozen=True)
class SdeRunConfig:
    """One stochastic integration run.

    The thermal Langevin force of diffusion D = rho0 V Gamma k T drives the
    mode from rest, and the run burns in for 5 / ``slowest_rate`` before
    the kept samples: 10/damping unless the mode is overdamped.
    mode_omega may be zero, in which case the velocity is an
    Ornstein-Uhlenbeck process and the position a free integral of it.
    """

    timestep: float
    duration: float
    seed: int
    ensemble_size: int
    mode_omega: float
    damping: float
    keep_samples: bool = False

    def validate(self) -> None:
        if not (0.0 < self.timestep < math.inf) or not (0.0 < self.duration < math.inf):
            raise Refusal("timestep and duration must be positive and finite")
        if not (self.damping > 0.0) or not (self.mode_omega >= 0.0):
            raise Refusal("damping must be positive, mode_omega non-negative")
        rate = max(self.damping, self.mode_omega)
        if self.timestep * rate > STABILITY_LIMIT * (1.0 + 1e-12):
            raise Refusal(
                f"timestep {self.timestep:g} times fastest rate {rate:g} "
                f"exceeds the stability limit {STABILITY_LIMIT}")
        if self.ensemble_size < 2:
            raise Refusal(
                "need at least 2 ensemble members to estimate errors")
        if self.duration * self.damping < MIN_STATIONARY_DURATIONS:
            raise Refusal(
                f"duration {self.duration:g} s is below "
                f"{MIN_STATIONARY_DURATIONS:g}/damping; stationary "
                "statistics would not be trustworthy")


def slowest_rate(mode_omega: float, damping: float) -> float:
    """The mode's slowest relaxation rate, 1/s: damping/2, unless 2 w_j < Gamma
    and the overdamped position relaxes at (Gamma - sqrt(Gamma^2 - 4 w_j^2))/2,
    computed as w_j x / (1 + sqrt((1 - x)(1 + x))) with x = 2 w_j/Gamma, which
    neither cancels nor overflows.  w_j = 0 takes damping/2, since its
    position has no stationary state.  A rate outside (0, inf) is refused."""
    if 2.0 * mode_omega >= damping or mode_omega == 0.0:
        rate = 0.5 * damping
    else:
        x = 2.0 * mode_omega / damping
        rate = mode_omega * x / (1.0 + math.sqrt((1.0 - x) * (1.0 + x)))
    return in_range(f"the slowest relaxation rate for w_j = {mode_omega!r} "
                    f"and Gamma = {damping!r} is", rate)


def transition(mode_omega: float, damping: float, sigma2: float,
               dt: float) -> tuple[np.ndarray, np.ndarray]:
    """Exact transition (Phi, Sigma) of the state (q, u) over one step.

    sigma2 is the white-force PSD strength: du gets sigma dW with
    sigma^2 = 2 D / (rho0 V)^2, so Q = diag(0, sigma2).  With
    C = expm([[-A, Q], [0, A^T]] dt), Phi = C22^T and Sigma = Phi C12
    (Van Loan 1978).  mode_omega = 0 needs no separate branch.
    """
    import numpy as np

    w2 = mode_omega**2
    c = np.array(_expm([[0.0, -dt, 0.0, 0.0],
                        [w2 * dt, damping * dt, 0.0, sigma2 * dt],
                        [0.0, 0.0, 0.0, -w2 * dt],
                        [0.0, 0.0, dt, -damping * dt]]))
    phi = c[2:, 2:].T
    sig = phi @ c[:2, 2:]
    return phi, 0.5 * (sig + sig.T)


# Pade-13 numerator coefficients and the 1-norm up to which the degree-13
# approximant is accurate to double precision (Higham 2005)
_PADE13 = (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
           1187353796428800.0, 129060195264000.0, 10559470521600.0,
           670442572800.0, 33522128640.0, 1323241920.0, 40840800.0,
           960960.0, 16380.0, 182.0, 1.0)
_THETA13 = 5.371920351148152


def _matmul(a: list[list[float]], b: list[list[float]]) -> list[list[float]]:
    """A B.  The oracles' matrices are at most 4x4, small enough to keep as
    nested lists of floats, so that the driven oracle needs no numpy."""
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


def _combine(*terms: tuple[float, list[list[float]]]) -> list[list[float]]:
    """The sum of coefficient * matrix over (coefficient, matrix) pairs."""
    n = len(terms[0][1])
    out = [[0.0] * n for _ in range(n)]
    for coef, mat in terms:
        for row_out, row in zip(out, mat):
            for j, x in enumerate(row):
                row_out[j] += coef * x
    return out


def _solve(a: list[list[float]], b: list[list[float]]) -> list[list[float]]:
    """X with A X = B, by Gaussian elimination with partial pivoting."""
    n = len(a)
    rows = [list(ra) + list(rb) for ra, rb in zip(a, b)]
    for k in range(n):
        pivot = max(range(k, n), key=lambda i: abs(rows[i][k]))
        rows[k], rows[pivot] = rows[pivot], rows[k]
        for i in range(k + 1, n):
            f = rows[i][k] / rows[k][k]
            rows[i] = [x - f * y for x, y in zip(rows[i], rows[k])]
    x = [None] * n
    for i in reversed(range(n)):
        x[i] = [(rows[i][n + j] - sum(rows[i][k] * x[k][j] for k in range(i + 1, n)))
                / rows[i][i] for j in range(len(b[0]))]
    return x


def _balance(a: list[list[float]]) -> tuple[list[list[float]], list[float]]:
    """(B, d) with B = D^-1 A D, D = diag(d) of powers of two.

    Parlett-Reinsch scaling without permutations: each row and column pair
    is scaled by powers of two until their off-diagonal 1-norms are within
    a factor of two.  The scaling is exact in floating point.  The sums
    must be finite, or the scaling loops would not end; ``_expm`` checks.
    """
    b = [list(row) for row in a]
    n = len(b)
    d = [1.0] * n
    settled = False
    while not settled:
        settled = True
        for i in range(n):
            col = sum(abs(b[k][i]) for k in range(n)) - abs(b[i][i])
            row = sum(abs(x) for x in b[i]) - abs(b[i][i])
            if col == 0.0 or row == 0.0:
                continue
            before = col + row
            f = 1.0
            while col < row / 2.0:
                f *= 2.0
                col *= 4.0
            while col > row * 2.0:
                f /= 2.0
                col /= 4.0
            if (col + row) / f < 0.95 * before:
                settled = False
                b[i] = [x / f for x in b[i]]
                for r in b:
                    r[i] *= f
                d[i] *= f
    return b, d


def _expm(a) -> list[list[float]]:
    """Matrix exponential of a small dense matrix, to double precision.

    a is any square sequence of rows of numbers; the result is a list of
    rows of floats.  The balanced matrix is scaled by 2^-s into the range of
    the Pade-13 approximant r13 = (V - U)^-1 (V + U), which is then squared
    s times.  A non-finite entry, or entries whose sum overflows, are
    refused.
    """
    a = [[float(x) for x in row] for row in a]
    if not math.isfinite(sum(abs(x) for row in a for x in row)):
        raise Refusal("matrix exponential needs finite entries with a "
                      "finite sum")
    b, d = _balance(a)
    n = len(b)
    norm = max(sum(abs(row[j]) for row in b) for j in range(n))
    s = max(0, math.ceil(math.log2(norm / _THETA13))) if norm > 0.0 else 0
    b = [[x / 2.0**s for x in row] for row in b]
    c = _PADE13
    ident = [[float(i == j) for j in range(n)] for i in range(n)]
    b2 = _matmul(b, b)
    b4 = _matmul(b2, b2)
    b6 = _matmul(b4, b2)
    u = _matmul(b, _combine(
        (1.0, _matmul(b6, _combine((c[13], b6), (c[11], b4), (c[9], b2)))),
        (c[7], b6), (c[5], b4), (c[3], b2), (c[1], ident)))
    v = _combine(
        (1.0, _matmul(b6, _combine((c[12], b6), (c[10], b4), (c[8], b2)))),
        (c[6], b6), (c[4], b4), (c[2], b2), (c[0], ident))
    r = _solve(_combine((1.0, v), (-1.0, u)), _combine((1.0, v), (1.0, u)))
    for _ in range(s):
        r = _matmul(r, r)
    return [[x * d[i] / d[j] for j, x in enumerate(row)] for i, row in enumerate(r)]


def _noise_factor(sigma: np.ndarray) -> np.ndarray:
    """Matrix square root of the transition covariance, robust to rounding."""
    import numpy as np

    try:
        return np.linalg.cholesky(sigma)
    except np.linalg.LinAlgError:
        vals, vecs = np.linalg.eigh(sigma)
        vals = np.clip(vals, 0.0, None)
        return vecs * np.sqrt(vals)


@dataclass(frozen=True)
class TrajectoryStats:
    """Ensemble statistics of one run; arrays retained only if requested."""

    mean_u2: float
    mean_u2_stderr: float
    equipartition_ratio: float     # rho0 V <u^2> / (k T)
    member_mean_u2: np.ndarray
    mean_q2: float
    n_members: int
    n_samples: int
    metadata: dict
    velocity: np.ndarray | None = None   # (members, samples) if kept
    position: np.ndarray | None = None


def integrate_langevin(config: SdeRunConfig, scenario: Scenario) -> TrajectoryStats:
    """Integrate the mode SDE and reduce the ensemble to statistics.

    Every chunk of kept states is reduced as soon as it is produced; see the
    module docstring.  mean_q2 is the ensemble's mean square position,
    which for mode_omega = 0 is a random walk's and has no stationary
    value.  A run of more than MAX_MEMBER_STEPS member-steps is refused
    before anything is allocated.  quantities.in_range refuses, before
    the run, a thermal force strength 2 D / (rho0 V)^2, or a velocity
    variance k T / (rho0 V) or its square outside (0, inf); after it, a
    mean u^2, its standard error or an equipartition ratio outside
    (0, inf).  metadata["wall_s"] is the wall time of the call.
    """
    import numpy as np

    started = time.perf_counter()
    config.validate()
    gas = scenario.gas
    kt = K_BOLTZMANN * gas.temperature
    m = config.ensemble_size

    burn_in = 5.0 / slowest_rate(config.mode_omega, config.damping)
    steps = (burn_in + config.duration) / config.timestep
    try:
        member_steps = m * steps
    except OverflowError:   # an int member count beyond the double range
        member_steps = math.inf
    if not member_steps <= MAX_MEMBER_STEPS:
        raise Refusal(
            f"{m} members of {steps:.3g} steps each are "
            f"{member_steps:.3g} member-steps, above the limit of "
            f"{MAX_MEMBER_STEPS:.3g}")
    n_burn = int(round(burn_in / config.timestep))
    n_keep = int(round(config.duration / config.timestep))

    # 2 D / (rho0 V)^2 with D = rho0 V Gamma k T.  The cell volume and the
    # square raise OverflowError past the double range, the division
    # ZeroDivisionError when the square underflows to 0
    rho_v = math.inf
    try:
        rho_v = gas.density * scenario.cell.volume
        sigma2 = 2.0 * (rho_v * config.damping * kt) / rho_v**2
    except ArithmeticError:
        sigma2 = math.nan
    in_range(f"the thermal force strength 2 D / (rho0 V)^2 for rho0 V = "
             f"{rho_v!r} and k T = {kt!r} is", sigma2)
    # the run's statistics have the scale k T / (rho0 V), and its standard
    # error squares deviations of the mean u^2
    u2 = in_range("the velocity variance k T / (rho0 V) is", kt / rho_v)
    in_range(f"the square of the velocity variance {u2!r} is", u2 * u2)

    u2_sums = np.zeros(m)
    q2_sums = np.zeros(m)
    if config.keep_samples:
        q = np.empty((m, n_keep))
        u = np.empty((m, n_keep))

    phi, sig = transition(config.mode_omega, config.damping, sigma2,
                          config.timestep)
    total = n_burn + n_keep
    stepper = _Stepper(phi, _noise_factor(sig), min(_CHUNK_STEPS, total))
    # u^2, then q^2, of one member's kept steps in a chunk
    row = np.empty(min(_CHUNK_STEPS, n_keep))
    x = np.empty(2)
    # spawn(1) member after member gives the children of one spawn(m)
    seeds = np.random.SeedSequence(config.seed)
    for member in range(m):
        gen = np.random.Generator(np.random.Philox(seeds.spawn(1)[0]))
        x[:] = 0.0
        done = 0
        while done < total:
            span = min(_CHUNK_STEPS, total - done)
            keep = max(n_burn - done, 0)
            n = span - keep
            states = stepper.advance(x, gen, span)
            x[:] = states[-1]
            done += span
            if n <= 0:
                continue
            # this chunk's kept positions and velocities
            q_c, u_c = states[keep:, 0], states[keep:, 1]
            u2_sums[member] += np.sum(np.multiply(u_c, u_c, out=row[:n]))
            q2_sums[member] += np.sum(np.multiply(q_c, q_c, out=row[:n]))
            if config.keep_samples:
                dest = slice(done - n - n_burn, done - n_burn)
                q[member, dest] = q_c
                u[member, dest] = u_c

    member_mean_u2 = u2_sums / n_keep
    mean_u2 = in_range("the run's mean u^2 is",
                       math.fsum(member_mean_u2.tolist()) / m)
    stderr = in_range("the run's standard error of mean u^2 is",
                      float(np.std(member_mean_u2, ddof=1)) / math.sqrt(m))

    return TrajectoryStats(
        mean_u2=mean_u2,
        mean_u2_stderr=stderr,
        equipartition_ratio=in_range("the run's equipartition ratio is",
                                     rho_v * mean_u2 / kt),
        member_mean_u2=member_mean_u2,
        mean_q2=math.fsum((q2_sums / n_keep).tolist()) / m,
        n_members=m,
        n_samples=n_keep,
        metadata={
            "rng": "numpy.random.Philox, per-member SeedSequence.spawn",
            "normal_transform": "Generator.standard_normal (ziggurat)",
            "numpy_version": np.__version__,
            "n_steps": total,
            "timestep": config.timestep,
            "wall_s": time.perf_counter() - started,
        },
        velocity=u if config.keep_samples else None,
        position=q if config.keep_samples else None,
    )


class _Stepper:
    """One member's states a chunk at a time, through buffers allocated once.

    A step maps a state row x to x Phi^T + z L^T, with z the step's draws
    and noise_l the factor L.  lift = [Phi^T, (Phi^2)^T, ...,
    (Phi^block)^T], (d, block d), carries a block's start row to its
    stacked rows: row k is x (Phi^(k+1))^T.  noise_map is the
    lower-block-triangular (block d, block d) matrix whose (k, j) block is
    Phi^(k-j) L for j <= k: applied to the block's stacked draws z_0 ..
    z_(block-1) it gives the noise each row has accumulated, sum_(j<=k)
    Phi^(k-j) L z_j.  The buffers hold a chunk of up to ``chunk`` steps, so
    memory does not grow with the ensemble or the run length.
    """

    def __init__(self, phi: np.ndarray, noise_l: np.ndarray, chunk: int):
        import numpy as np

        d, block = len(phi), _BLOCK_STEPS
        width, n_blocks = d * block, -(-chunk // block)
        stack = [np.eye(d)]
        for _ in range(block):
            stack.append(phi @ stack[-1])
        self.lift = np.concatenate([power.T for power in stack[1:]], axis=1)
        self.noise_map = np.zeros((width, width))
        for k in range(block):
            for j in range(k + 1):
                self.noise_map[d * k:d * k + d, d * j:d * j + d] = stack[k - j] @ noise_l
        self.starts = np.empty((n_blocks, d))
        self.draws = np.empty((n_blocks, width))
        self.noise = np.empty((n_blocks, width))
        self.states = np.empty((n_blocks, width))

    def advance(self, x: np.ndarray, gen: np.random.Generator,
                span: int) -> np.ndarray:
        """States (span, d) after each of span steps from the row x.

        gen fills the draws, d per step, step after step; zero draws pad
        the last block, and the states they reach are dropped.  Row k of a
        block is its start row lifted to step k + 1 plus the noise the block
        has accumulated.  The start rows follow s_(b+1) = s_b P + e_b, with P
        the last d columns of lift and e_b the noise block b ends with.  The
        result is a view into a buffer that the next call overwrites.
        """
        import numpy as np

        d, width = self.lift.shape
        n_blocks = -(-span // (width // d))
        # the start rows are the sums s_b = sum_(j<=b) w_j P^(b-j) over the
        # terms w = (x, e_0, .., e_(n_blocks-2))
        draws = self.draws[:n_blocks]
        gen.standard_normal(out=draws.reshape(-1)[:d * span])
        draws.reshape(-1)[d * span:] = 0.0
        noise = np.matmul(draws, self.noise_map.T, out=self.noise[:n_blocks])
        starts = self.starts[:n_blocks]
        starts[0] = x
        starts[1:] = noise[:-1, width - d:]
        _sum_powers(starts, self.lift[:, width - d:])
        states = np.matmul(starts, self.lift, out=self.states[:n_blocks])
        states += noise
        return states.reshape(-1, d)[:span]


def _sum_powers(w: np.ndarray, p: np.ndarray) -> None:
    """Replace each row w[b] by sum_(j<=b) w[j] p^(b-j), in place.

    Recursive doubling (Hillis and Steele, CACM 29(12), 1986): after the
    round with shift h, w[b] holds the sum over j in (b - 2h, b].
    """
    shift = 1
    while shift < len(w):
        w[shift:] += w[:-shift] @ p
        p = p @ p
        shift *= 2


def estimate_psd(samples, sample_rate: float, nperseg: int) -> SpectrumSeries:
    """Welch PSD in the package's two-sided-angular convention.

    samples may be (n,) or (members, n); member periodograms, one row at
    a time, are averaged.  Segments of nperseg samples start every
    nperseg - nperseg // 2 samples and are tapered with a periodic Hann
    window: scipy.signal.welch(x, fs, "hann", nperseg, detrend=False)
    averaged over rows.  ``series_variance`` of the result approximates the
    time-domain variance.  Segments are not detrended: the oracle's samples
    are zero-mean fluctuations, and removing each segment's mean would take
    the low-frequency part of their variance with it.
    """
    import numpy as np

    from .noise import SpectrumSeries

    x = np.atleast_2d(np.asarray(samples, dtype=float))
    n = x.shape[1]
    if nperseg < 8:
        raise Refusal("nperseg below 8 cannot resolve anything")
    if nperseg > n:
        raise Refusal(f"nperseg {nperseg} exceeds the {n} samples available")
    step = nperseg - nperseg // 2
    window = 0.5 - 0.5 * np.cos(2.0 * math.pi / nperseg * np.arange(nperseg))
    power = np.zeros(nperseg // 2 + 1)
    for row in x:
        spec = np.fft.rfft(np.lib.stride_tricks.sliding_window_view(
            row, nperseg)[::step] * window, axis=1)
        power += np.sum(np.square(spec.real) + np.square(spec.imag), axis=0)
    count = len(x) * ((n - nperseg) // step + 1)
    pxx = power / (count * sample_rate * np.sum(window**2))
    # fold the negative frequencies in; DC and an even length's Nyquist
    # bin have no mirror
    pxx[1:(nperseg + 1) // 2] *= 2.0
    # one-sided per ordinary Hz to the two-sided dw/pi measure
    return SpectrumSeries(2.0 * math.pi * np.fft.rfftfreq(nperseg, 1.0 / sample_rate),
                          pxx / 4.0)


def series_variance(series: SpectrumSeries) -> float:
    """2 / pi times the sum of the values times the step of a uniform
    non-negative grid, such as the PSDs here have; any other grid, or one
    point, is refused."""
    import numpy as np

    omega = series.omega
    values = np.asarray(series.values, dtype=float)
    step = np.diff(omega)
    if len(omega) < 2 or not np.allclose(step, step[0], rtol=1e-9):
        raise Refusal(f"series_variance needs a uniform grid of at least "
                      f"two points, got {len(omega)} points")
    return 2.0 / math.pi * float(np.sum(values) * step[0])


@dataclass(frozen=True)
class DrivenModeResult:
    """Steady-state response extracted by quadrature demodulation.

    amplitude is the complex phasor in the exp(-i w t) convention:
    A(t) = Re[amplitude exp(-i w t)].  drift is the relative change of the
    phasor between the last two demodulation windows.  n_samples and
    sample_dt describe the demodulation grid spanning both windows.
    wall_s is the wall time of the call.
    """

    amplitude: complex
    drift: float
    drive_omega: float
    n_samples: int
    sample_dt: float
    wall_s: float


def integrate_driven(mode_omega: float, damping: float, drive_strength: float,
                     drive_omega: float) -> DrivenModeResult:
    """Integrate A'' + Gamma A' + w_j^2 A = d/dt[S cos(w t)] to steady state.

    The drive oscillator (cos w t, sin w t) is part of the state, so the
    system has a constant 4x4 generator M and its exact propagator is
    expm(M t).  From rest, one propagator covers the settle time
    30/damping; then P = expm(M dt) steps the state one sample at a time
    through two consecutive windows of 20 drive periods, each demodulated
    against the state's own (cos, sin) by the trapezoid rule.  Non-finite
    arguments are refused, and so are a damping so low that after the
    settle time the drive oscillator (cos, sin) is more than
    _UNIT_TOLERANCE from unit length and a drive frequency so low that the
    generator over one sample spacing overflows.
    A phasor that still drifts by more than 0.1% between windows, or
    whose drift is not a number, is refused too.
    """
    started = time.perf_counter()
    if not (math.isfinite(mode_omega * mode_omega) and math.isfinite(drive_strength)):
        raise Refusal("mode_omega, its square and drive_strength must be "
                      f"finite, got {mode_omega!r} and {drive_strength!r}")
    if not (0.0 < drive_omega < math.inf) or not (0.0 < damping < math.inf):
        raise Refusal("drive frequency and damping must be positive and finite")
    settle_time = 30.0 / damping
    period = 2.0 * math.pi / drive_omega

    # state (A, A', cos w t, sin w t)
    generator = [
        [0.0, 1.0, 0.0, 0.0],
        [-mode_omega**2, -damping, 0.0, -drive_strength * drive_omega],
        [0.0, 0.0, 0.0, -drive_omega],
        [0.0, 0.0, drive_omega, 0.0],
    ]
    window = _PERIODS_PER_WINDOW * period
    n_eval = 2 * _PERIODS_PER_WINDOW * _SAMPLES_PER_PERIOD + 1
    sample_dt = 2.0 * window / (n_eval - 1)
    # from rest, (A, A', cos, sin) = (0, 0, 1, 0): the settled state is the
    # propagator's third column
    settle = [[x * settle_time for x in row] for row in generator]
    # the drive oscillator keeps unit length; a settle time whose generator
    # overflows, in its sum (length nan) or in the squarings of expm, loses it
    length = math.nan
    if math.isfinite(sum(abs(x) for row in settle for x in row)):
        a, v, c, s = (row[2] for row in _expm(settle))
        length = math.hypot(c, s)
    if not abs(length - 1.0) <= _UNIT_TOLERANCE:
        raise Refusal(
            f"damping {damping!r} is too low: after the settle time "
            f"30/damping = {settle_time!r} s the drive oscillator has "
            f"length {length!r}, not 1")
    step = [[x * sample_dt for x in row] for row in generator]
    if not math.isfinite(sum(abs(x) for row in step for x in row)):
        raise Refusal(
            f"drive_omega {drive_omega!r} is too low for mode_omega "
            f"{mode_omega!r} and damping {damping!r}: over its sample spacing "
            f"of {sample_dt!r} s the generator leaves the range of a double")
    ((p00, p01, p02, p03), (p10, p11, p12, p13),
     (p20, p21, p22, p23), (p30, p31, p32, p33)) = _expm(step)
    # the response times the drive oscillator it carries, sample by sample
    in_phase, quadrature = [a * c], [a * s]
    for _ in range(n_eval - 1):
        a, v, c, s = (p00 * a + p01 * v + p02 * c + p03 * s,
                      p10 * a + p11 * v + p12 * c + p13 * s,
                      p20 * a + p21 * v + p22 * c + p23 * s,
                      p30 * a + p31 * v + p32 * c + p33 * s)
        in_phase.append(a * c)
        quadrature.append(a * s)

    half = n_eval // 2
    phasors = [complex(2.0 / window * _trapezoid(in_phase[lo:hi], sample_dt),
                       2.0 / window * _trapezoid(quadrature[lo:hi], sample_dt))
               for lo, hi in ((0, half + 1), (half, n_eval))]
    drift = abs(phasors[1] - phasors[0]) / max(abs(phasors[1]), 1e-300)
    if not drift <= 1e-3:
        raise Refusal(
            f"steady state drifting {drift:.2e} between windows")
    return DrivenModeResult(amplitude=phasors[1], drift=drift,
                            drive_omega=drive_omega, n_samples=n_eval,
                            sample_dt=sample_dt,
                            wall_s=time.perf_counter() - started)


def _trapezoid(f: list[float], dt: float) -> float:
    """Trapezoid-rule integral of the samples f spaced dt apart, summed
    with math.fsum."""
    return 0.5 * dt * math.fsum(f0 + f1 for f0, f1 in zip(f, f[1:]))
