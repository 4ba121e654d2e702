"""Speed never buys a changed answer: the exact bits of facility2d runs.

The expected strings were recorded with the per-oracle facility formulas,
before the fused point oracle, and every later change must reproduce them.
Each holds the status, the iteration count and float.hex of the end point
(x1, x2) and of the final residual. The facility blocks are 2x2, so the
BLAS thread count does not move these bits.
"""

import numpy as np
import pytest

from nepsolve import SolverConfig, get_problem, solve, solve_newton_kkt

#: the facility study's settings (nepsolve facility-bench)
CONFIG = SolverConfig(grad_tol=1e-6, divergence_radius=100.0)

EXPECTED = {
    "descent-newton": [
        "converged 7 0x1.d3e7d29094baep-7 0x1.474d9a7cc1f09p-1 -0x1.0e7d96c352c28p-2 -0x1.0e5c7b27eb6dcp-1 0x1.3458353d59190p-21",
        "converged 20 -0x1.7daa892090b5fp-6 0x1.ec3c777dfa0c4p-3 -0x1.eba8251ad2319p-5 0x1.6ebca490d0c64p-1 0x1.d9a68d93ec68bp-21",
        "converged 7 0x1.d3e51e0d560f4p-7 0x1.474d9aca2b2bep-1 -0x1.0e7d999365352p-2 -0x1.0e5c7341bb11bp-1 0x1.5b9a6de42614ap-33",
        "converged 8 0x1.d3e534cdd0ddep-7 0x1.474d9ae1adbecp-1 -0x1.0e7d99b7eb528p-2 -0x1.0e5c733c1560cp-1 0x1.d5e2a54e1f334p-27",
        "converged 5 0x1.d3e53d23486c8p-7 0x1.474d9ae8e1270p-1 -0x1.0e7d99d199726p-2 -0x1.0e5c7353c299bp-1 0x1.66347cba26c84p-26",
        "converged 9 0x1.d3e51df8aa4b0p-7 0x1.474d9ac9e5376p-1 -0x1.0e7d999386ecap-2 -0x1.0e5c734113c40p-1 0x1.063b38101ba0dp-38",
        "converged 9 0x1.d3e51e0f41cf2p-7 0x1.474d9af8c9454p-1 -0x1.0e7d99c681c0bp-2 -0x1.0e5c7353478b8p-1 0x1.8b1db81d10233p-27",
        "converged 6 0x1.d3e51dfa9cad4p-7 0x1.474d9ac9e7578p-1 -0x1.0e7d9993934d8p-2 -0x1.0e5c734110f58p-1 0x1.1be4f64a6237ap-39",
        "converged 7 0x1.d3e6cefb854c7p-7 0x1.474da019c2915p-1 -0x1.0e7da12c82e69p-2 -0x1.0e5c72253fffap-1 0x1.5925541dbfdaep-22",
        "converged 6 0x1.d3e520912a82cp-7 0x1.474d9acf8a609p-1 -0x1.0e7d99a69fc72p-2 -0x1.0e5c7341f89aap-1 0x1.66c85973a2995p-29",
        "converged 11 0x1.d3e51de8a04fdp-7 0x1.474d9ac99124fp-1 -0x1.0e7d999160eb1p-2 -0x1.0e5c73419a526p-1 0x1.3ad7be45c86ffp-33",
        "converged 5 0x1.d3e52cd2b50b7p-7 0x1.474d9ae81e72ap-1 -0x1.0e7d99eaa87ebp-2 -0x1.0e5c73cc59badp-1 0x1.61ded695e4940p-25",
        "converged 8 0x1.d3e60ffea1f88p-7 0x1.474d9d164346dp-1 -0x1.0e7d9e600d1f5p-2 -0x1.0e5c6fd0d6515p-1 0x1.9d443508dd702p-23",
        "converged 8 0x1.d3e4fe3ee1f91p-7 0x1.474d9aac80c96p-1 -0x1.0e7d991fa36d3p-2 -0x1.0e5c736e6db46p-1 0x1.57dad5b761a30p-26",
        "converged 6 0x1.d3e51df9ffda6p-7 0x1.474d9ac9e63cfp-1 -0x1.0e7d999390cedp-2 -0x1.0e5c7341116b6p-1 0x1.271beef76a4d8p-41",
        "converged 9 0x1.d3e51df823849p-7 0x1.474d9ac9d7899p-1 -0x1.0e7d99936196dp-2 -0x1.0e5c734127238p-1 0x1.bc9ae02afba98p-37",
        "converged 7 0x1.d3e5114b8f3adp-7 0x1.474d9ac4cdaf8p-1 -0x1.0e7d99152d8eap-2 -0x1.0e5c735461ce5p-1 0x1.a711a82d5c43dp-27",
        "converged 7 0x1.d3eab54c24a09p-7 0x1.474da2172ee91p-1 -0x1.0e7daafa3c44fp-2 -0x1.0e5c6bf3c4eebp-1 0x1.db56b99d73585p-21",
        "converged 4 0x1.d3e6e5904b496p-7 0x1.474daf49cbd60p-1 -0x1.0e7dc50ee1c20p-2 -0x1.0e5c5ff23e510p-1 0x1.d4e6a430c9db7p-21",
        "converged 6 0x1.d3e51e08b6dd4p-7 0x1.474d9aca14da1p-1 -0x1.0e7d9993dbb58p-2 -0x1.0e5c7340fec9dp-1 0x1.7312c57b2ae50p-35",
    ],
    "newton-kkt": [
        "diverged 14 -0x1.c2f030d05a0f2p-10 0x1.9800c348f4f1fp-3 -0x1.ecc423151b46cp+6 -0x1.fc70e26dccaa5p+5 inf",
        "diverged 15 0x1.f57363876b132p+6 0x1.ff798907259d7p+6 -0x1.f9ea8b61e6109p-4 -0x1.f9fad3d4e4242p-4 inf",
        "diverged 12 0x1.c1d50417b3889p-9 0x1.8f735d1d1ba13p-3 0x1.79b64bb331bc9p+6 -0x1.07ada63e45f38p+7 inf",
        "diverged 6 0x1.8384460a358f5p+6 -0x1.3b3b362fb1cd2p+7 0x1.d8472d70e6d5ep+6 -0x1.3665433e6b0f0p+6 inf",
        "diverged 2 -0x1.44a9b79046a8ep+7 0x1.077c5b0a6bc3bp+5 0x1.22a04ac25ea18p+3 -0x1.773d66e22a313p+4 inf",
        "diverged 3 0x1.c20952dbd61f3p+3 0x1.aad2b78a4da4ap+4 -0x1.deaa372cdc3fep+6 -0x1.f080000f528fbp+6 inf",
        "diverged 14 0x1.926c5b15fc0fap-11 0x1.9e19cde33698ep-3 0x1.c92e14ac75b73p+6 0x1.d5996f25c85ffp+6 inf",
        "diverged 7 0x1.805e37abce8e8p+7 -0x1.4f2b0b19f2d08p+7 -0x1.235513058a6eep+6 0x1.d6725fc7fb642p+5 inf",
        "diverged 5 0x1.010e2f6b4733ep+7 -0x1.0008aa1a4fe52p+5 0x1.89c7527423942p+6 -0x1.07eef006cc546p+7 inf",
        "diverged 7 -0x1.39fdb486a5733p+7 -0x1.9563eeccf0688p+5 -0x1.7e0f88d476fc4p+6 -0x1.2a6f661527641p+5 inf",
        "diverged 8 -0x1.16b4b7ec1eb6ep+7 0x1.3d0e87804069dp+6 -0x1.0a48182752874p+7 0x1.73211bcfe85a0p+5 inf",
        "diverged 15 -0x1.4322aed348d1fp-9 0x1.96b353cc48f76p-3 -0x1.0872b3f4525c2p+7 -0x1.29b3139ac8b12p+6 inf",
        "diverged 4 -0x1.129de1f92ed2ep+7 0x1.6d5f68d084e10p+6 -0x1.5f8a2b9ff7820p+7 0x1.2d3cdd26c8aa2p+7 inf",
        "diverged 14 0x1.dee6dd247b7bap+6 -0x1.6c85e39aa031fp+6 -0x1.f8cfa5908b49ep-4 -0x1.025fec12d5b76p-3 inf",
        "diverged 11 -0x1.ecf34f9339858p-8 0x1.8fda0e194dda8p-3 -0x1.db40eba36a128p+5 -0x1.b30f53ace361fp+6 inf",
        "diverged 15 0x1.b293672fb48efp+6 -0x1.69b105bcbacc7p+6 -0x1.fe4167d083efdp-4 -0x1.05e2660426e1ep-3 inf",
        "diverged 14 -0x1.d58e46d676b86p-14 0x1.9dc3936c52621p-3 -0x1.3ed9222d0f7a0p+6 0x1.9f3b80a37c143p+6 inf",
        "diverged 4 0x1.21ec96cb7c7f0p+5 0x1.a82a5c31fbe9dp+6 -0x1.671ff3f667064p+5 -0x1.186354b5688e6p+6 inf",
        "diverged 5 0x1.ae0cb10deb312p+3 -0x1.4396cdc99b981p+5 0x1.4fc4f725de1ebp-1 -0x1.bbc35ea3c714cp+6 inf",
        "diverged 4 0x1.223f1828fbb86p+5 0x1.74c51a400104cp+1 0x1.098c778ec4e66p+7 -0x1.1960aa3d334c0p+4 inf",
    ],
}


@pytest.mark.parametrize("solver", sorted(EXPECTED))
def test_facility2d_answers_are_bit_identical(solver):
    run = {"descent-newton": solve, "newton-kkt": solve_newton_kkt}[solver]
    problem = get_problem("facility2d")
    starts = np.random.default_rng(0).uniform(-2.0, 2.0, size=(20, 4))
    got = []
    for row in starts:
        report = run(problem, row[:2], row[2:], CONFIG)
        end = (*report.final_x1, *report.final_x2, report.final_residual)
        fields = [report.status.value, str(report.iterations)] + [float(v).hex() for v in end]
        got.append(" ".join(fields))
    assert got == EXPECTED[solver]
