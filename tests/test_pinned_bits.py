"""Speed never buys a changed answer: the exact bits of facility2d runs,
and the exact bytes of the files the CLI writes.

The facility2d strings were recorded with the per-oracle facility formulas,
before the fused point oracle, and every later change must reproduce them.
Each holds the status, the iteration count and float.hex of the end point
(x1, x2) and of the final residual. The report digests were recorded while
classify_point still ran eigvalsh on every block, so they pin the
`classification.min_eig_1/2` fields too. Every problem here has blocks of
at most 2x2, so the BLAS thread count does not move these bits.
"""

import hashlib

import numpy as np
import pytest

from nepsolve import SolverConfig, get_problem, solve, solve_newton_kkt
from nepsolve.cli import main

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


#: sha256 of `nepsolve solve --problem <id> --solver <solver>` (paper start):
#: (report JSON, trajectory CSV)
SOLVE_SHA256 = {
    ("examp1", "descent-newton"): (
        "ac91b2f2c33d64b8d05c016495f9ada9642b351efb5e3667ee6e14d57fe12cb8",
        "d82bbb9d766d73fcd4306dbd6d308bd44f2584a3ab3b582211e7d83956be5ab1",
    ),
    ("examp1", "newton-kkt"): (
        "cab0627552f912c32281d35d91c4fc321cf7e4a8eb2b30773f09813d9767414a",
        "78f019b7e471ad55d3cbbca12a4b718a93901557052beba8a8834f609dbc294f",
    ),
    ("examp1", "exact-jacobi"): (
        "cfed938bbdf05de3050c52726fbe5f329bf425cad5c23585b4fa506fac337e7c",
        "e5bdd23fcf175765781d6a033f60f8d1db12b6e0cdf588be1fd7167e18e19300",
    ),
    ("examp2", "descent-newton"): (
        "e5868543eaa28a3e251aa613470f60e6d1e89cea771866ed0fe23c973fb8d20f",
        "f0df8844f733c70235ed3c54540fc50e1b668240cb10fb11db3d99a05992f669",
    ),
    ("examp2", "newton-kkt"): (
        "9a1ca465ab241e28907538a89c0dbd1ec0d33eab3e99b1c49b0279706c74f8a1",
        "bc08817c0c9d6bc19c9b78ebd7e4b5fc9f34cacc83d9aa0e7d5f7708e5cb0e97",
    ),
    ("examp2", "exact-jacobi"): (
        "9f5a97acdc700f411e0a5d412750387c1caaee794af3730ce5da9017875a8d47",
        "e9c59521d3a91e34d52031a7770853233701b1804b0adecdd935f98f09ff2137",
    ),
    ("examp3", "descent-newton"): (
        "1c8cd21e35e33b21e5be891330784a1d284a4822b68a7cfa10396cde641133d5",
        "8d25d87a86b12842b1e9f9e49b84f8a113f9f9e1c9a936748e15f69868b16126",
    ),
    ("examp3", "newton-kkt"): (
        "d4872fee93d746218f3e013b4aeddeff8786a8af4ad0327ab30c4a97889709b2",
        "d332ec3392fc7bc723d440e1983fc7ec67a0e2f1b1797bc872296a0c27f42185",
    ),
    ("examp3", "exact-jacobi"): (
        "ce580d04a5ada725d67d849efef31fec5d9b44a405fe2a8c9d1f86a856985628",
        "e553327d8267a8a071f9bd73ada089f276701dca3fd5e38df9896c304a1eb4e2",
    ),
    ("examp4", "descent-newton"): (
        "2d497141431816541c6c456510d26fd1371995ec1d80d148412ca757e88bcd71",
        "aaa361d193cda41c17dabe975d99a4a1e26111a54a2bf795241e9657fe98a71f",
    ),
    ("examp4", "newton-kkt"): (
        "a18b7540b79b3f3ba728df91a5b4940d644ac8a1e7b830b93e9b53f8c3bc0fde",
        "bbb6199c654fba448c37bb952befbf7932d03cc0e252acd3ed16d57b9e395eea",
    ),
    ("examp4", "exact-jacobi"): (
        "12265f328134d290e76958b16c3dd9bb3d1c1d2274fdb521d107e937a9c3c4ac",
        "2dffbd7ee83cf19affe28db7128a544940385ee6e4f2c424b2a8dd4ba1116d90",
    ),
    ("examp5", "descent-newton"): (
        "a3f76b71df9dd40a692cc9ba048fedfbd4e2eca743217b4f3c2ead2a7a075f93",
        "2d2bcf264e30b90bf3475edd52891d8b9637422166525626ed780546db3c10ba",
    ),
    ("examp5", "newton-kkt"): (
        "8d5fa824b03ea333d1d62ba0c4d19be7892811ec6c390907e7ebc503574cabfd",
        "9a2be62d4d7c010d8ebe7892bd658e54556c1b98e064b69d718c1170d30cf173",
    ),
    ("examp5", "exact-jacobi"): (
        "a12e88d37d2c2ac59c1f5a88c366b0fabb46b444420264aea2e70e4d638923f3",
        "5822e37150ec8ea7e0b1e10bf8ce259be7eb9f9ecb493cf3c9553685ddd0cf44",
    ),
    ("facility1d", "descent-newton"): (
        "22d9f95a938a62f807d4dad327a59ef83b405afb294b51851ba373c0e8eb4e32",
        "6e27565552bc7c428392aebf1af963323c0b157d0874b9f93f7173741d6ac90c",
    ),
    ("facility1d", "newton-kkt"): (
        "bb619c4040432bd93f5a3367c669c33fe67ca0c9aa253b7f5aa36334cbe687f4",
        "8718b514e72e1e12f57fac0fc49cee30ff1e744f16c2889e05c7e3fae4047a60",
    ),
    ("facility1d", "exact-jacobi"): (
        "59431cc9157fffdd2891383dd538551e40fc75cd21b07e278e989de5d5c4d564",
        "d50c8505e94430b535fb264d9e59f420daf027391b8b53a886c7c056e2a88d1e",
    ),
    ("facility2d", "descent-newton"): (
        "5b77022c84c11ea314af078fab0215cf4ef2b6827c8ab2d227d040b43b3f540e",
        "b4349c799184062f8d021eed01ed83e750d4a7786c2166dd3ad518f3df0d840a",
    ),
    ("facility2d", "newton-kkt"): (
        "d9af612ed5675782d116baa638c324ff50b8441ca3d609a1f20186dd8ef68e02",
        "b4b5666fa92c82a2ea0ef5ebf2df7d90b3844699fd147900ed23289945684e6b",
    ),
    ("facility2d", "exact-jacobi"): (
        "83e2fe97b6b626c14acb5dbbb834a5734106b392edc3803f1bc10551e560a355",
        "556fd845124013ff22c15d145bbbdfbf6f43aa0e61866d9314825210347c85db",
    ),
}

#: sha256 of `nepsolve table1`'s table1.csv
TABLE1_SHA256 = "9ff3f8f39c7c9a28747cc7709f278241befc63b8a3a588b17c150237648c7322"

#: sha256 of `nepsolve facility-bench --runs 100 --seed 0`'s facility_bench.csv
#: (the default solvers, descent-newton and newton-kkt)
FACILITY_BENCH_SHA256 = "33b833870488511f2c6172a2c047fbeeefe403161f4c9e4a7682bfc84165bb08"


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("problem_id,solver", sorted(SOLVE_SHA256))
def test_solve_files_are_byte_identical(tmp_path, problem_id, solver):
    main(["solve", "--problem", problem_id, "--solver", solver, "--out-dir", str(tmp_path)])
    stem = f"{problem_id}_{solver}"
    got = (_sha256(tmp_path / f"{stem}_report.json"), _sha256(tmp_path / f"{stem}_trajectory.csv"))
    assert got == SOLVE_SHA256[problem_id, solver]


def test_table1_csv_is_byte_identical(tmp_path):
    assert main(["table1", "--out-dir", str(tmp_path)]) == 0
    assert _sha256(tmp_path / "table1.csv") == TABLE1_SHA256


def test_facility_bench_csv_is_byte_identical(tmp_path):
    args = ["facility-bench", "--runs", "100", "--seed", "0", "--out-dir", str(tmp_path)]
    assert main(args) == 0
    assert _sha256(tmp_path / "facility_bench.csv") == FACILITY_BENCH_SHA256
