"""Report bytes pinned by hash.

Each case runs ``main()`` in process and compares the SHA-256 of its
stdout, and its exit code, with values recorded before the analyzer was
restructured; the failing ``check`` cases were recorded before the axiom
sums moved to integer images.  A refactor that changes no output keeps
every hash; a change that is meant to alter a report must re-record the
hash of that case and say why.  Input files are written under fixed relative names,
since the report names its input.
"""

from __future__ import annotations

import hashlib
from fractions import Fraction as F

import pytest
from test_coalg import LADDER_ALL, LOOPS_ALL, change_basis, with_delta_off
from test_comod import REPEATS, with_coaction_off

from qcalg.cli import main
from qcalg.comod import regular_comodule
from qcalg.textfmt import dumps_coalgebra, dumps_comodule

LOOP_ALL = """\
coalgebra loop
vertex a
vertex b
arrow f: a -> b
arrow g: b -> a
mode all
"""

# n*n parallel arrows a -> b[n] and n arrows back from b[1]: every
# F-Noetherian sweep finds growth and local finiteness fails.
GROWING = """\
coalgebra growing
field rational
param N = 3
vertex a
vertex b[n], n=1..N
arrow x[n,i]: a -> b[n], n=1..N, i=1..N
arrow y[i]: b[1] -> a, i=1..N
mode declared
"""

# The fan a -> b[n] (n parallel arrows) with every arrow reversed.
FLIPPED_FAN = """\
coalgebra fan
field rational
param N = 3
vertex a
vertex b[n], n=1..N
arrow x[n,i]: b[n] -> a, n=1..N, i=1..n
mode declared
"""

FILES = {"ladder.quiver": LADDER_ALL, "loop.quiver": LOOP_ALL,
         "loops.quiver": LOOPS_ALL, "growing.quiver": GROWING,
         "fan.quiver": FLIPPED_FAN, "repeats.sc": REPEATS}

# (argv, exit code, sha256 of stdout); "ex1-n2.sc" is ex1 at N=2 in a
# changed basis with integer coefficients.  "off-third.sc" is that file
# with the first constant of Delta(x[1]) off by 1/3, and "bad-rho.sc" is
# its regular right comodule with the first constant of rho(x[1]) off by
# 1/5; both fail coassociativity with fractional sides.  "repeats.sc"
# repeats (j, k) pairs in Delta and rho, with sums that cancel over QQ and
# one that cancels only over GF(7).  "loops.quiver" has loops at every
# vertex, so its sweep reads the (v, v) entries of the pair table; the
# sweep 4..6 of ex2 at N=3 compiles every bound itself.  Both were recorded
# while the sweep still quotiented the regular comodule.  "mutant-ex1" is
# not coassociative and ``compute`` does not check it, so its filtration
# and socle pin the radical on input where tr(L_x L_y) = tr(L_xy) need not
# hold; they were recorded while the Gram matrix still summed those traces.
CASES = [
    (("analyze", "ex1", "--N", "5", "--json"), 0,
     "34b430f3cc6940b26bf1f191959083fb2bf3b032ba6d84efd1f52fc38928bc7a"),
    (("analyze", "ex2", "--N", "5", "--json"), 0,
     "2ab36704a04e6f8ca5cc97ea4c79db9d62239554c78233f169f1d1b6af458cf3"),
    (("analyze", "ex1", "--N", "5", "--json", "--field", "gf(101)"), 0,
     "f1bcd1cd6e27f44da09e67c94dfb381d4302b541551e383492cda36b24173340"),
    (("analyze", "ex2", "--N", "5", "--json", "--field", "gf(101)"), 0,
     "1d63f0d6f7116bf3d8b6b6d8d4982e5f7e4f0269bbd35188ddd61c34b354f1b6"),
    (("analyze", "ex2", "--sweep", "1..5", "--json"), 0,
     "0f63d312832451e02ed344a6fe81de8a076796c1314745bc26fdec6d53eb2dbc"),
    (("analyze", "ex2", "--N", "1", "--json"), 0,
     "182797df98660e941b051a527cbc96bb7580f1ea47ae763798258dc53fe4a479"),
    (("analyze", "ex1", "--N", "3", "--depth", "1", "--json"), 0,
     "626d8d52e202c097ae5bcd28574b48fde87c9ba0de0de72378246d8e4ae131e3"),
    (("analyze", "ex1", "--N", "3"), 0,
     "13ce621e0226a526d7b9dc001d782a4c04bf84b027f47876715a899bbaa6e521"),
    (("analyze", "ladder.quiver", "--N", "3", "--json"), 0,
     "3d8100c45c9164014ec50c95f84396a93320a9787a46f163e66a1824ade4171e"),
    (("analyze", "loop.quiver", "--N", "1", "--depth", "2", "--json"), 0,
     "f7030f87cb0919b7b1a5ea8fd52928b3cc6ea5db24c62fc20a934e353ef1a553"),
    (("analyze", "loop.quiver", "--N", "2", "--depth", "3"), 0,
     "a2fd514027baf038549099070c7a4c75452ba5eefbbbaa09b1482c5690e63dad"),
    (("analyze", "loop.quiver", "--N", "1"), 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (("analyze", "loops.quiver", "--N", "3", "--depth", "2", "--json"), 0,
     "b62bd4e165efada73c1c9e5fe9bcfb180f3951c4f532b9013a7262ff73158075"),
    (("analyze", "ex2", "--N", "3", "--sweep", "4..6", "--field", "gf:101",
      "--json"), 0,
     "deae4fbcaf04be1516d4601b1b15504241b3160ddef83cf405b816186266da6b"),
    (("analyze", "growing.quiver", "--N", "4", "--json"), 0,
     "9e87b1f480b8f9a50ce55d359a0f857387343fe25ddb89461c7c5e4130b8d802"),
    (("analyze", "fan.quiver", "--N", "3", "--json", "--field", "gf:101",
      "--sweep", "1..4"), 0,
     "d377635e9f4f3f3629b1aecf07c72b6ab8fa055a2f6dc7af66e0faf638e2c770"),
    (("analyze", "ex1-n2.sc", "--json"), 0,
     "7804d7c3965833dc366c8f0d17697b06ac7f8b297f849174fc4ca5f324492bf5"),
    (("compute", "ex1-n2.sc", "socle", "--side", "left", "--json"), 0,
     "1f21e53c10c7850208a2e35ff797a2687a040aceb90d26fb594a2cf5c572fa98"),
    (("check", "ex2", "--N", "3", "--json"), 0,
     "db8501c1ecd3c685ef01241dc75518d97c97d4036407294f5549f660d62bb57f"),
    (("check", "mutant-ex1", "--json"), 1,
     "0adc70492b8e4e9e9aa04538eb184c4277057652d115106ce7d9b9c9a2db2225"),
    (("compute", "mutant-ex1", "filtration", "--json"), 0,
     "5219f1c5470df682e74ac46918cb233f0f68801fa5934bb737dcee3564dceb2c"),
    (("compute", "mutant-ex1", "socle", "--side", "left", "--json"), 0,
     "91bb97cab4c35a5c59cc180bd1ea9d4270ced4566976086ddbb82148a1383de8"),
    (("check", "off-third.sc", "--json"), 1,
     "526394d17e5f64779c2aff94fd376ad09a0e06f933763890c8c6d4a1dfb801fe"),
    (("check", "off-third.sc"), 1,
     "3410ba6614e131d1581840c0ddebe75b128e5bec3288394b88bead61b90cd779"),
    (("check", "off-third.sc", "--json", "--field", "gf:7"), 1,
     "619f6d95be5d70cca4f601f7e3164b4ad843320f5ef00efe4d4855776bbf9b39"),
    (("check", "bad-rho.sc", "--json"), 1,
     "8b8377f4296afe4dbf50abe8d9c89c7135161daec7794d6b2faaf4b85650669d"),
    (("check", "bad-rho.sc", "--json", "--field", "gf:7"), 1,
     "814f23a40139cec35713024cc247713a6a61164dec583319f3d0793c4f7ee32f"),
    (("check", "repeats.sc", "--json"), 0,
     "2324e0e37f80615ee252d37d5bb0fd28848d75d4951ce8e4c980ab0e39c3fd34"),
    (("analyze", "repeats.sc", "--json"), 0,
     "fc95d19bce15d803d04539c85ec71dc0e3aaa1f88607bb7d1a0e8b12abb9bb54"),
    (("compute", "repeats.sc", "socle", "--side", "left", "--json"), 0,
     "bc151093defda8257d5e398aac89e3e3ca93c9e9f1c5ac85d375df6874ad485b"),
    (("compute", "repeats.sc", "hom", "--simple", "b", "--json"), 0,
     "db2816421a3d7357e7be788a200b2fa5a11f500f36627fa38c42409602cebbae"),
    (("check", "repeats.sc", "--json", "--field", "gf:7"), 0,
     "62d12488925c01a368cdcbaf6d0ea26ab5bfac759779e24c35beb1c286c80592"),
    (("analyze", "repeats.sc", "--json", "--field", "gf:7"), 0,
     "52c06a69addfd95a3279f6a8ab3c25aec9360fe766c15b79cb257003e114c67c"),
    (("compute", "repeats.sc", "socle", "--side", "left", "--json", "--field", "gf:7"), 0,
     "0410cd40bcceb9290a75896c33a4195601e3054921d5e7bc52f7ae7aca72b284"),
    (("compute", "repeats.sc", "hom", "--simple", "b", "--json", "--field", "gf:7"), 0,
     "0f769ede7d8ed5aead5340abe3e7454dca725e14e98022eeabb2a50218982bd9"),
]


@pytest.fixture(scope="module")
def inputs(tmp_path_factory, ex1_n2):
    root = tmp_path_factory.mktemp("inputs")
    for name, text in FILES.items():
        (root / name).write_text(text)
    c = change_basis(ex1_n2[0], seed=5)
    (root / "ex1-n2.sc").write_text(dumps_coalgebra(c, name="ex1-n2"))
    off = with_delta_off(c, "x[1]", F(1, 3))
    (root / "off-third.sc").write_text(dumps_coalgebra(off, name="off-third"))
    bad = with_coaction_off(regular_comodule(c, "right"), "x[1]", F(1, 5))
    (root / "bad-rho.sc").write_text(dumps_comodule(bad, name="bad-rho"))
    return root


@pytest.mark.parametrize("argv, code, digest", CASES,
                         ids=[" ".join(argv) for argv, _, _ in CASES])
def test_report_bytes_are_pinned(argv, code, digest, inputs, monkeypatch, capsys):
    monkeypatch.chdir(inputs)
    got = main(list(argv))
    out = capsys.readouterr().out
    assert (got, hashlib.sha256(out.encode("utf-8")).hexdigest()) == (code, digest)
