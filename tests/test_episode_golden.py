"""Episode outputs pinned per policy kind.

The digests are sha256s of the price, reference and demand arrays of one
episode (T = 3000, bounded-uniform noise, seed 7), recorded before episodes
were posted in blocks.  Every kind keeps its bytes from r1 = 0, and the
learner and the myopic policy from any r1.  A planned path from r1 != 0 keeps
its prices, but its references now come from the simulator's sequential
running total instead of r1 + cumsum(prices); they must stay within
``REF_ULPS`` of ``induced_references`` (3 ulps measured up to T = 10^5), and
the demands must follow from them and the seed's noise draws.  The
``markdown_oracle`` and ``learn_then_earn`` digests, whose prices come from a
solved curve, were re-captured when the curve solver became a numpy scan;
their arrays moved by at most 1.2e-14.
"""

import hashlib

import numpy as np
import pytest

from refprice import Instance, NoiseSpec, run_episode
from refprice.curve import induced_references
from refprice.model import expected_demand_vec

SYM = Instance(a=1.0, b=2.0, eta_plus=0.5, eta_minus=0.5, p_max=4.0 / 3.0, p_ratio_bound=1.0)
ASYM = Instance(a=1.0, b=1.7, eta_plus=0.3, eta_minus=0.5, p_max=1.0, p_ratio_bound=0.85)
INSTANCES = {"sym": SYM, "asym": ASYM}
SPECS = {
    "fixed": {"kind": "fixed", "price": 0.9},
    "optimal_fixed": {"kind": "optimal_fixed"},
    "two_price": {"kind": "two_price", "alpha": 0.3},
    "markdown_oracle": {"kind": "markdown_oracle"},
    "myopic_greedy": {"kind": "myopic_greedy"},
    "learn_then_earn": {"kind": "learn_then_earn", "c_t1": 2.0},
}
T, SEED = 3000, 7
NOISE = NoiseSpec.bounded_uniform(0.1)
REF_ULPS = 4

# (instance, kind, r1) -> sha256 of (price, reference, demand); None where a
# planned path's references may move by a few ulps.
GOLDEN = {
    ("sym", "fixed", 0.0): (
        "76bd0612031f3c4b4f05e666670fd80e5bf943c81db0ac010bc1bb364e133c8d",
        "c6b763d69c79311670ed059f140c312c51e96ce0db58cf5f98c2d3c33dc3568a",
        "c1cd805506ba72baaffecd77a71f358487e486b1400420e6cd880905dbfa0347",
    ),
    ("sym", "fixed", 0.75): ("76bd0612031f3c4b4f05e666670fd80e5bf943c81db0ac010bc1bb364e133c8d", None, None),
    ("sym", "optimal_fixed", 0.0): (
        "99484f38c8c4005016de2bbb683f91d7022c50f52af777435144adfe5e6c796e",
        "5c9cfd96aa22301adc63c6380f6ae1a1af3fd6bd46b0a922911f4e29098b852c",
        "fadf1dd5dcb384bc18c3853bdeea594db5c8d2e31d3e416ab3fea5c52854f7df",
    ),
    ("sym", "optimal_fixed", 0.75): ("78bd557c1482922fbafdd618edc448a151f538e5fa60af3b7692e50d74c398f4", None, None),
    ("sym", "two_price", 0.0): (
        "87c314a53821fd8e333b45563013b41e5a8626e472f5ab0ff0cfdebb2397d7ad",
        "6a94ce6983d6b0c1ca7665e2176e8e7e496ec68de0bf8fafe4a6390b457e67e8",
        "0ce3dd51511454d2ecede017b587a2f56a4d78949e7a60dc1284dd26b42287ff",
    ),
    ("sym", "two_price", 0.75): ("87c314a53821fd8e333b45563013b41e5a8626e472f5ab0ff0cfdebb2397d7ad", None, None),
    ("sym", "markdown_oracle", 0.0): (
        "67570305fa2cdd26a120ca3a568ef5681dc1f45265fe790b7cfafc9ce64301a7",
        "e25aeb6c12e0440c963557a72ee392d95251625fb5c5328293f45d312c4e3dd9",
        "4401480371ff81dd98336ddc960732307190b6637e8e850e209238f64f8652c2",
    ),
    ("sym", "markdown_oracle", 0.75): ("612662f7986c03ba972135b2e64566c99cacb86d8eff472bde195221d78fa8f1", None, None),
    ("sym", "myopic_greedy", 0.0): (
        "7bdd0a4170a78fc66913f2fd7081e5f8dba06ac8f11c0c7fb8beaecdbed23c27",
        "9284d20d01aa03f44620e897b40928b157899f2c4af96c7f54dde25afaa28dd6",
        "06b47fcf90ec404d92287528b14bafca15661f222cb210d983b3bc83f7060e45",
    ),
    ("sym", "myopic_greedy", 0.75): (
        "ca610d03558a6b8ac6125a129eb5eeb8223101d43b4c512558e7bf366cb63431",
        "efe876e649b4437b5b4f199ea7bcd90cef7c1445e202eb43ab91d222dd88e495",
        "a3d876ccc9cae29a850411fa38a9d8bdbcfb09b3704534a4ba69ae9984f2a679",
    ),
    ("sym", "learn_then_earn", 0.0): (
        "7a24cc06bbc26c316ab856a1aac09a6eeba6c5c34453d02d5ab6198ef5f7aad5",
        "93261641a96450ee92bf456cf43c467173c0d772bdaa9ff4651b80e1fbd22eab",
        "beb8decdb064811e847009b5f2a5dffcaa0015522552c88f026f54558abea018",
    ),
    ("sym", "learn_then_earn", 0.75): (
        "f1fd832c53fd452158fa791901722beefdbd721da9031ceb9ee3c93fd0d549d5",
        "0a6062778068dc3a3b38db3b864813628929d03ac188bc4e4d36692953744f79",
        "ad276fba50bafbdc1405ecb78398fa02cc4fe3021875ad50bb53476543166d7c",
    ),
    ("asym", "fixed", 0.0): (
        "76bd0612031f3c4b4f05e666670fd80e5bf943c81db0ac010bc1bb364e133c8d",
        "c6b763d69c79311670ed059f140c312c51e96ce0db58cf5f98c2d3c33dc3568a",
        "e0eafef6a5d8ae8ebc33b37ea924cce343402454bd0e552c0b96833849f53026",
    ),
    ("asym", "fixed", 0.75): ("76bd0612031f3c4b4f05e666670fd80e5bf943c81db0ac010bc1bb364e133c8d", None, None),
    ("asym", "optimal_fixed", 0.0): (
        "8b5938667ded6ea94704e57aab62054e3f47b21503ca2609bbac8019abae1fed",
        "2820f8ca1cbc7b032161e6bde04270d3177fe2a24634d0b621419a409dda0abe",
        "92c262cfc5bad05661a0c651b6e0c1d509ea6e3880d235b82c3cea1939b14c65",
    ),
    ("asym", "optimal_fixed", 0.75): ("a1849658c588f5ccc73a0468559dfce01204120b8cb1f0f87a1def94de9b70d3", None, None),
    ("asym", "markdown_oracle", 0.0): (
        "e74265b348781006058e9c48ba5b441e4f7d41f527dd19fcd5c1eac5a9ad146a",
        "e581d49faa7cdf00b033bbab8ac547a8dff15547ab09e0f6c5c741cfbc40ea9f",
        "39899b9aa28bfd0ee3cb73eaa685de6836d01f447de2d339cc06a9166025ba88",
    ),
    ("asym", "markdown_oracle", 0.75): ("e74265b348781006058e9c48ba5b441e4f7d41f527dd19fcd5c1eac5a9ad146a", None, None),
    ("asym", "myopic_greedy", 0.0): (
        "0bed26f0481c1aed4e0bb6af96f4194b043ad05edeac8fdfdb659ff9e0635a6a",
        "4691fa16aac9d8d03e88db418efdad897fdaa9726491c3fb87087d2774bc9b12",
        "f371376f057312d5e5e89b7dd5b7ca36375bf09ddd4d8265f5b46e38b013a96a",
    ),
    ("asym", "myopic_greedy", 0.75): (
        "95a7e2b655b3e19d4d06d80a72f7eee6c1ee9ee620bdcedcc97b8a839d4f3215",
        "0ce3c0f03d0625acba067e8a33db722da59079d98ca978d412457fd2ae11bd53",
        "f6220b7f054331c1a19bbc104e1fa864d88ed75d77b189b69d172847cb0219e9",
    ),
    ("asym", "learn_then_earn", 0.0): (
        "ab7bf5642edb692bf236c1b0866b07339d50a9bc27f3aa866a2cf76863dbdd29",
        "74c11a93c2c6face45af9c648cec49221757c3843af8d2ec32e968d704e55d8b",
        "1dc616fe43250552d83fa1aca7d92ee9bee92e427adefdfe7a0d1601bb036e48",
    ),
    ("asym", "learn_then_earn", 0.75): (
        "2a22b31012ad5b23d2db587ae772ece3a230dbd0993db215fd05d57a9fa31651",
        "e43fae77c4352323564140f04ae31726bfb2dbff33996f4a8a6b9a723a92a800",
        "a7b7119f62fe4423f6122875587332813290349a5f206dabe4c8b7ce7209535c",
    ),
}


def _digest(a: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(a, dtype=float).tobytes()).hexdigest()


@pytest.mark.parametrize("case", sorted(GOLDEN), ids=lambda c: "-".join(map(str, c)))
def test_episode_matches_golden(case):
    inst_name, kind, r1 = case
    inst = INSTANCES[inst_name]
    rec = run_episode(inst, NOISE, SPECS[kind], T, r1, SEED)
    price, ref, demand = GOLDEN[case]
    assert _digest(rec.price) == price
    if ref is not None:
        assert _digest(rec.reference) == ref
        assert _digest(rec.demand) == demand
        return
    induced = induced_references(rec.price, 1, r1)
    assert np.all(np.abs(rec.reference - induced) <= REF_ULPS * np.spacing(induced))
    noise = NOISE.draw_array(np.random.default_rng(SEED), T)
    assert np.array_equal(rec.demand, expected_demand_vec(inst, rec.price, rec.reference) + noise)
