"""One instance end to end: draw, measure, quantize, decode, compare."""

import time

import numpy as np

from sdlowrank import encoding, harness, noise_shaping, recovery, sensing, sigma_delta


def run_demo():
    n = 10
    rank = 2
    ell = 80
    lam = 8
    r = 2
    beta = 0.5
    m = lam * ell
    print(f"matrix {n} x {n}, rank {rank}, m = {m} measurements (lambda = {lam})")

    op = sensing.draw_operator(m, n, n, seed=42)
    X = harness.make_low_rank(n, n, rank, seed=7)
    y = sensing.apply(op, X)
    print(f"measurement range: max |y| = {np.max(np.abs(y)):.3f}")

    L = sigma_delta.required_levels(float(np.max(np.abs(y))), beta, r)
    alphabet = sigma_delta.build_alphabet(L, beta)
    scheme = sigma_delta.default_scheme(r, alphabet)
    print(f"order r = {r}: alphabet has 2L = {2 * L} levels, "
          f"step {beta}, max level {alphabet.max_level:g}")

    run = sigma_delta.quantize(y, scheme)
    print(f"state bound: max |u| = {np.max(np.abs(run.state)):.4f} "
          f"(certified {scheme.stability_constant}), overflow = {run.overflow}")
    print(f"state recursion residual = {sigma_delta.state_residual(run, r):.2e}")

    basis = noise_shaping.compute_basis(m, r, truncation=ell)
    problem = recovery.RecoveryProblem(
        operator=op, quantized=run.output, order=r, gamma=beta / 2, step=beta,
        constraint_form="projected", basis=basis,
    )
    start = time.time()
    sol = recovery.recover(problem)
    elapsed = time.time() - start

    rel = np.linalg.norm(sol.estimate - X) / np.linalg.norm(X)
    print(f"recovered in {sol.iterations} iterations ({elapsed:.2f} s), "
          f"converged = {sol.converged}")
    print(f"relative error = {rel:.4e}")
    print(f"nuclear norms: estimate {sol.objective:.4f} vs truth "
          f"{recovery.nuclear_norm(X):.4f}")
    report = recovery.check_feasibility(sol, problem)
    print(f"constraint: |shaped residual| = {report.shaped_lhs:.4f} "
          f"<= radius {report.shaped_radius:.4f} (slack {report.shaped_slack:.4f})")

    # same instance through the sketched path: ship L_enc numbers, not m
    L_enc = ell
    encoder = encoding.draw_encoder(L_enc, m, seed=3)
    coded = encoding.encode(run.output, r, encoder, alphabet.max_level)
    problem_enc = recovery.RecoveryProblem(
        operator=op, quantized=run.output, order=r, gamma=beta / 2, step=beta,
        constraint_form="encoded", encoder=encoder,
    )
    sol_enc = recovery.recover(problem_enc)
    rel_enc = np.linalg.norm(sol_enc.estimate - X) / np.linalg.norm(X)
    print(f"sketched to {L_enc} numbers (~{coded.rate_bits} bits vs "
          f"{m} quantized samples): relative error = {rel_enc:.4e}")


if __name__ == "__main__":
    run_demo()
