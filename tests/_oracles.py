"""Shared generators and independent oracles used across the test suite.

Everything here is deliberately written without the package's fast paths:
Kronecker expansions are built column by column, explicit kernels are
summed over lags directly, the moment kernels keep both (r, s) and (s, r)
of their R x R stacks, the variational linear regression runs on plain
numpy inverses, the CSV reference reads and writes one row at a time
through the csv module, and the synthetic systems and random model states
are assembled through the public API with fixed seeds. The full_window_*
references build the whole I x N window matrix of a record, as the
package did before it turned records into windows one block at a time.
pair_taps reads the FIR filters of packed coefficients one window pair
at a time, the reference for the taps the predictive variance reads
straight from a covariance. Tests compare the package against these
references. traced_peak measures the memory a call allocates, for the
guards on the kernels' scratch.
"""

import csv
import tracemalloc

import numpy as np

from bayesvolterra import (
    DataFormatError,
    FitConfig,
    GammaPosterior,
    NormalizationRecord,
    PriorConfig,
    SyntheticSystem,
    block_quadratics,
    build_lagged_matrix,
    calibrate_components,
    column_products,
    expected_output,
    identify,
    init_state,
    moment_pairs,
    normalize_input,
    random_cpd_system,
    synthesize,
    window_pairs,
)
from bayesvolterra.features import SCORE_BLOCK, hadamard


def kron_chain(columns):
    """Kronecker product of a list of vectors with the first one fastest."""
    acc = np.asarray(columns[0], dtype=float)
    for col in columns[1:]:
        acc = np.kron(np.asarray(col, dtype=float), acc)
    return acc


def cpd_expand(factors):
    """Reference expansion: sum of per-column Kronecker chains."""
    factors = [np.asarray(f, dtype=float) for f in factors]
    rank = factors[0].shape[1]
    total = kron_chain([f[:, 0] for f in factors])
    for r in range(1, rank):
        total = total + kron_chain([f[:, r] for f in factors])
    return total


def monomial_vector(u, order):
    """The degree-`order` monomials of u, laid out like cpd_expand."""
    return kron_chain([u] * order)


def unpack(packed):
    """The full (R, R, N) stack of a packed (R(R+1)/2, N) moment stack,
    whose rows are the pairs r <= s in np.triu_indices order."""
    packed = np.asarray(packed, dtype=float)
    rank = (int(np.sqrt(8 * packed.shape[0] + 1)) - 1) // 2
    r, s = np.triu_indices(rank)
    if r.size != packed.shape[0]:
        raise ValueError(f"{packed.shape[0]} rows is not a packed stack")
    full = np.empty((rank, rank) + packed.shape[1:])
    full[r, s] = packed
    full[s, r] = packed
    return full


def full_second_moments(U, mean, cov, uu):
    """The full (R, R, N) second-moment stack, every (r, s) computed:
    (m_r'u_n)(m_s'u_n) + u_n' C_{rs} u_n, with uu = khatri_rao(U, U)."""
    window, rank = mean.shape
    proj = mean.T @ U
    out = proj[:, None, :] * proj[None, :, :]
    blocks = cov.reshape(rank, window, rank, window)
    flat = blocks.transpose(0, 2, 1, 3).reshape(rank * rank, window * window)
    out += (flat @ uu).reshape(rank, rank, U.shape[1])
    return out


def full_expected_gram(U, weights, uu):
    """sum_n weights[:, :, n] kron u_n u_n' from a full (R, R, N) stack."""
    rank = weights.shape[0]
    window, n_samples = U.shape
    flat = weights.reshape(rank * rank, n_samples) @ uu.T
    blocks = flat.reshape(rank, rank, window, window)
    return blocks.transpose(0, 2, 1, 3).reshape(rank * window, rank * window)


def cpd_kernels_order2(factors):
    """Expand D=2 window-space CPD factors into explicit order-0/1/2 kernels.

    The window carries (1, lags), so the rank-one products mix polynomial
    orders; collecting terms by how many lag entries they touch gives the
    constant, the linear kernel, and the quadratic kernel.
    """
    window = np.shape(factors[0])[0]
    grid = cpd_expand(factors).reshape(window, window)
    constant = float(grid[0, 0])
    linear = grid[0, 1:] + grid[1:, 0]
    quadratic = grid[1:, 1:].copy()
    return [constant, linear, quadratic]


def nested_summation(kernels, u):
    """Volterra output of explicit kernels by direct nested summation.

    kernels[p] is the order-p coefficient tensor with p axes of length M
    (lags 0..M-1) and kernels[0] the scalar offset; samples before the
    start of the record count as zero, like the model's window.
    """
    u = np.asarray(u, dtype=float)
    memory = np.shape(kernels[1])[0]
    lags = np.array([np.concatenate([np.zeros(j), u])[: u.size] for j in range(memory)])
    y = np.full(u.size, float(np.asarray(kernels[0])))
    for p in range(1, len(kernels)):
        letters = "abcdefgh"[:p]
        spec = ",".join([letters] + [f"{c}n" for c in letters]) + "->n"
        y = y + np.einsum(spec, np.asarray(kernels[p], dtype=float), *([lags] * p))
    return y


def vb_linear_oracle(U, y, sweeps, priors=(1e-6,) * 6):
    """Variational Bayesian linear regression with a lam * diag(delta) prior.

    Independent reference for the single-factor model: plain numpy
    inverses, coordinate order weights -> delta -> lam -> tau per sweep,
    matching the package's sweep order. Returns the final posteriors.
    """
    a0, b0, c0, d0, g0, h0 = priors
    U = np.asarray(U, dtype=float)
    y = np.asarray(y, dtype=float)
    window, n = U.shape
    gram = U @ U.T
    uy = U @ y
    lam = c0 / d0
    dlt = np.full(window, g0 / h0)
    tau = a0 / b0
    mean = np.zeros(window)
    cov = np.eye(window)
    a_n, b_n = a0, b0
    for _ in range(sweeps):
        cov = np.linalg.inv(tau * gram + lam * np.diag(dlt))
        mean = tau * (cov @ uy)
        sq = mean**2 + np.diag(cov)
        g_n = g0 + 0.5
        h_n = h0 + 0.5 * lam * sq
        dlt = g_n / h_n
        c_n = c0 + 0.5 * window
        d_n = d0 + 0.5 * float(dlt @ sq)
        lam = c_n / d_n
        resid = float(((y - mean @ U) ** 2).sum())
        resid += float(np.einsum("in,ij,jn->", U, cov, U))
        a_n = a0 + 0.5 * n
        b_n = b0 + 0.5 * resid
        tau = a_n / b_n
    return {
        "mean": mean,
        "cov": cov,
        "delta": dlt,
        "lam": lam,
        "tau": tau,
        "noise_shape": a_n,
        "noise_rate": b_n,
    }


def student_t_oracle(window, oracle):
    """Closed-form Student-t predictive of the linear-regression oracle."""
    window = np.asarray(window, dtype=float)
    location = float(oracle["mean"] @ window)
    scale_sq = oracle["noise_rate"] / oracle["noise_shape"]
    scale_sq += float(window @ oracle["cov"] @ window)
    return location, float(np.sqrt(scale_sq)), 2.0 * oracle["noise_shape"]


def fading_row_scale(memory=10, active_lags=4):
    """Window-row mask keeping the constant term and the first few lags."""
    scale = np.zeros(memory + 1)
    scale[0] = 1.0
    scale[1 : 1 + active_lags] = 1.0
    return scale


def scale_rows(system, row_scale):
    """The system with every factor's window rows multiplied by row_scale;
    zeros localize the kernel support on a chosen set of lags."""
    row_scale = np.asarray(row_scale, dtype=float)
    return SyntheticSystem([fac * row_scale[:, None] for fac in system.factors],
                           noise_std=system.noise_std)


def make_rank2_data(seed, n=2000, memory=10, snr_db=20.0, row_scale=None):
    """Rank-2 quadratic system excited by uniform noise, at a fixed SNR.

    Both rank-one components are calibrated to unit clean-output std so
    neither drowns out the other; the noise std is set from the clean
    output. Returns (u, y, sigma).
    """
    rng = np.random.default_rng(seed)
    u = rng.uniform(0.0, 1.0, n)
    system = random_cpd_system(2, memory, 2, rng)
    if row_scale is not None:
        system = scale_rows(system, row_scale)
    system = calibrate_components(system, u, component_std=1.0)
    clean = synthesize(system, u).y
    sigma = float(clean.std()) * 10.0 ** (-snr_db / 20.0)
    y = clean + sigma * rng.standard_normal(n)
    return u, y, sigma


def make_fading_data(seed, n_est=500, n_val=500, memory=10, snr_db=20.0):
    """Rank-2 system with kernel support only on the first four lags."""
    u, y, sigma = make_rank2_data(
        seed,
        n=n_est + n_val,
        memory=memory,
        snr_db=snr_db,
        row_scale=fading_row_scale(memory),
    )
    return u, y, sigma, n_est


def fit_rank2(seed, max_iter=800, rank=10, elbo_rel_tol=1e-9):
    """Fit the rank-recovery instance for one seed; returns (state, trace, sigma)."""
    u, y, sigma = make_rank2_data(seed)
    config = FitConfig(
        order=2,
        rank=rank,
        max_iter=max_iter,
        elbo_rel_tol=elbo_rel_tol,
        seed=seed,
    )
    state, trace = identify(build_lagged_matrix(u, 10), y, config)
    return state, trace, sigma


def random_state(seed):
    """A state with nothing left at its defaults, to exercise every field."""
    rng = np.random.default_rng(seed)
    order = int(rng.integers(1, 4))
    memory = int(rng.integers(1, 6))
    rank = int(rng.integers(1, 4))
    state = init_state(
        order,
        memory,
        rank,
        priors=PriorConfig(noise_shape=2e-3, noise_rate=3e-3),
        seed=seed,
        normalization=NormalizationRecord(
            input_min=-1.5, input_max=2.5, output_mean=0.25, output_std=1.75
        ),
        row_prec_fixed=bool(rng.integers(0, 2)),
    )
    window = memory + 1
    for f in state.factors:
        f.mean[...] = rng.standard_normal((window, rank))
        root = rng.standard_normal((window * rank, window * rank))
        f.cov[...] = root @ root.T + np.eye(window * rank)
        f.cov_logdet = None
    state.col_prec = GammaPosterior(
        rng.uniform(0.5, 3.0, rank), rng.uniform(0.5, 3.0, rank)
    )
    state.row_prec = GammaPosterior(
        rng.uniform(0.5, 3.0, window), rng.uniform(0.5, 3.0, window)
    )
    state.noise = GammaPosterior(rng.uniform(1.0, 5.0), rng.uniform(1.0, 5.0))
    return state


def reference_read_csv(path):
    """A `u,y` CSV read row by row with csv.reader and float() per cell.

    Returns (u, y), or raises DataFormatError worded as load_csv words it,
    citing the first offending line.
    """
    u, y = [], []
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None:
            raise DataFormatError(f"{path}:1: file is empty")
        if [c.strip() for c in header] != ["u", "y"]:
            raise DataFormatError(
                f"{path}:1: expected header 'u,y', got {','.join(header)!r}")
        for line, row in enumerate(reader, start=2):
            if len(row) != 2:
                raise DataFormatError(f"{path}:{line}: expected 2 columns, got {len(row)}")
            try:
                values = [float(cell) for cell in row]
            except ValueError:
                raise DataFormatError(f"{path}:{line}: non-numeric value in {row!r}") from None
            if not all(np.isfinite(values)):
                raise DataFormatError(f"{path}:{line}: non-finite value in {row!r}")
            u.append(values[0])
            y.append(values[1])
    if not u:
        raise DataFormatError(f"{path}: no data rows")
    return np.array(u), np.array(y)


def reference_write_csv(path, header, rows):
    """csv.writer output for rows of Python numbers: floats by repr, ints
    by str."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(v) if isinstance(v, float) else v for v in row])


def traced_peak(call):
    """Peak bytes that `call()` holds above what was allocated before it,
    as tracemalloc sees them (numpy reports its array buffers to it)."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        call()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def stack_product(stacks, rank, n_samples):
    """The product of packed (R(R+1)/2, N) moment stacks as identify forms
    it, for tests that compose the sweep's steps by hand."""
    return hadamard(stacks, (rank * (rank + 1) // 2, n_samples))


def full_window_synthesize(system, u, rng=None):
    """synthesize's output record from the whole window matrix of u."""
    y = expected_output(build_lagged_matrix(u, system.memory), system.factors)
    if system.noise_std > 0:
        y = y + system.noise_std * rng.standard_normal(u.size)
    return y


def full_window_calibrate_components(system, u, component_std=1.0):
    """calibrate_components from the whole window matrix of u."""
    outputs = column_products(build_lagged_matrix(u, system.memory), system.factors)
    gains = (component_std / outputs.std(axis=1)) ** (1.0 / system.order)
    return SyntheticSystem([np.asarray(f, dtype=float) * gains[None, :]
                            for f in system.factors], noise_std=system.noise_std)


def full_window_center_output(system, u):
    """center_output from the whole window matrix of u."""
    U = build_lagged_matrix(u, system.memory)
    factors = [np.asarray(f, dtype=float).copy() for f in system.factors]
    cofactor_means = column_products(U, factors, skip=0).mean(axis=1)
    column = int(np.argmax(np.abs(cofactor_means)))
    factors[0][0, column] -= expected_output(U, factors).mean() / cofactor_means[column]
    return SyntheticSystem(factors, noise_std=system.noise_std)


def full_window_predict(state, u, start=0):
    """predict's original-unit (locations, scales, dof) from the whole window
    matrix of the normalized record: the locations from expected_output on
    its columns from `start`, and the squared scales summed over blocks of
    SCORE_BLOCK of those columns, each with its own window_pairs and
    column_products."""
    record = state.normalization
    U = build_lagged_matrix(normalize_input(u, record), state.memory)[:, start:]
    locations = expected_output(U, state.factor_means)
    scale_sq = np.full(U.shape[1], float(state.noise.rate / state.noise.shape))
    r, s = moment_pairs(state.rank)
    twice = np.where(r == s, 1.0, 2.0)[:, None]
    for begin in range(0, U.shape[1], SCORE_BLOCK):
        block = U[:, begin:begin + SCORE_BLOCK]
        uu = window_pairs(block)
        for d, f in enumerate(state.factors):
            coef = block_quadratics(f.cov, state.rank, state.window) * twice
            h = column_products(block, state.factor_means, skip=d)
            scale_sq[begin:begin + block.shape[1]] += (
                (h[r] * h[s]) * (coef @ uu)).sum(axis=0)
    return (record.output_mean + record.output_std * locations,
            record.output_std * np.sqrt(scale_sq), 2.0 * float(state.noise.shape))


def pair_taps(coefs, window):
    """The FIR filters that coefs @ window_pairs(U) is on a record: the
    (P,) constants and (P, I, M) taps of the P rows of packed coefficients
    `coefs` (P, I(I+1)/2).

    Window n of a record is (1, x(n), ..., x(n - M + 1)), so its pair
    (0, 0) is 1, a pair (0, b) is x(n - (b - 1)), and a pair (a >= 1, b)
    is z_k(n - (a - 1)) with k = b - a, for the base_channels x and z_k.
    Row p of the product at window n is then constants[p] plus
    sum_c sum_t taps[p, c, t] channel_c(n - t): tap t of channel 0 holds
    the coefficient of the pair (0, t + 1), and tap t of channel 1 + k
    that of the pair (t + 1, t + 1 + k). Read one pair at a time.
    """
    coefs = np.asarray(coefs, dtype=float)
    assert coefs.shape[1] == window * (window + 1) // 2
    constants = np.zeros(coefs.shape[0])
    taps = np.zeros((coefs.shape[0], window, window - 1))
    for q, (a, b) in enumerate(zip(*np.triu_indices(window))):
        if a == 0 and b == 0:
            constants[:] = coefs[:, q]
        elif a == 0:
            taps[:, 0, b - 1] = coefs[:, q]
        else:
            taps[:, 1 + b - a, a - 1] = coefs[:, q]
    return constants, taps
