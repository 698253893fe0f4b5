"""One cold noise-shaping basis build, timed and measured in its own process.

    python3 demos/basis_build.py M R ELL

builds the leading ELL singular pairs of D^{-R} at size M with no cache,
and prints the build's wall time, the route that certified it
("structured", or "subspace iteration after k power steps"; "closed
form" at R = 1), sigma_ell, the certificate sigma_ell ||D^{R,T} V_ell||_2
of the pair it returned, and this process's resident peak (ru_maxrss)
before and after the build.  Each
run is its own interpreter, so the peak belongs to that build alone.
"""

import resource
import sys
import time

from sdlowrank import noise_shaping


def _peak_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None):
    m, r, ell = (int(arg) for arg in (sys.argv[1:] if argv is None else argv))
    before = _peak_mb()
    start = time.perf_counter()
    basis = noise_shaping.compute_basis(m, r, truncation=ell)
    seconds = time.perf_counter() - start
    certificate = noise_shaping._certificate(basis.singular_values, basis.right_vectors, r)
    slack = noise_shaping._CERTIFICATE_SLACK
    print(f"compute_basis(m={m}, r={r}, ell={ell}): {seconds:.2f} s")
    print(f"route = {basis.source}")
    print(f"sigma_ell = {basis.sigma_truncation:.17g}")
    print(f"certificate = {certificate:.17g} (certified at <= 1 + {slack:g})")
    print(f"peak RSS = {_peak_mb():.1f} MB ({before:.1f} MB before the build)")


if __name__ == "__main__":
    main()
