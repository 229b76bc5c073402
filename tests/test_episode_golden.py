"""Episode outputs pinned per policy kind.

The digests are sha256s of the price, reference and demand arrays of one
episode (T = 3000, bounded-uniform noise, seed 7), recorded before episodes
were posted in blocks.  Every kind keeps its bytes from r1 = 0, and the
learner and the myopic policy from any r1.  A planned path from r1 != 0 keeps
its prices, but its references now come from the simulator's sequential
running total instead of r1 + cumsum(prices); they must stay within
``REF_ULPS`` of ``induced_references`` (3 ulps measured up to T = 10^5), and
the demands must follow from them and the seed's noise draws.
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
        "7563e3979e249b616d095c338f133676df01db79c8cc6809d3f1173a905e733d",
        "5cb6844cc2abd092c068f0a9871d7aea9c8a5a32b9b4f0cb527b7d2ff55c866a",
        "ae5b9832e94c7a4552e7c5371a69fde408a42ae667fda02df653fa470dbfd270",
    ),
    ("sym", "markdown_oracle", 0.75): ("e40bd23ed27b1bd4d08993440ff76898779084ab0a0a36184e8a2c1a1a921579", None, None),
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
        "a93692c833148786cd775e1298080d241598327ecd043c8c700b8004a83e6e71",
        "a436f23d911731c161ee23d40dc30cc3a603bf78d62689cd69f974482a0e7a91",
        "1358ed780ae13631b536a4d820e52aac8e6361708d8c66ce853c75a62eab79c3",
    ),
    ("sym", "learn_then_earn", 0.75): (
        "250d0336c73b6074e78225e37424d68e143fc8113265f9de3b160f2943e6a6fa",
        "f632c459806854d6422ad7dba1e45308082a3f5bf6970603cda641e4313ffb3c",
        "99cc6afe0470fcb64499c12b768fe4486889df14dcff9933f8e6c76d3f8418e1",
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
        "09077d601da1e9d2e0f0c5f8e16ee07562e275921a3d425486f2f004b16f1c27",
        "6885254ea0e259f26034e18b78a8d8ce155c01c36b035f9a603a6b5140538f68",
        "263ed55da41e32535f81c1a48e17c999aa5c35b7555e990e4c8a3c7a235b11f7",
    ),
    ("asym", "markdown_oracle", 0.75): ("09077d601da1e9d2e0f0c5f8e16ee07562e275921a3d425486f2f004b16f1c27", None, None),
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
        "a637979e2a4bdf84203f57035ed23447f4cb2d2ae1109e8ea64ec33faae042a8",
        "583bea4021e9135a9e3ed98c3f2d915fca2fb85f10d0ef572ae5ef3f4ad92522",
        "8c68a2db9e1a5268ea4eeb95a7034ddccca92815223b9fb191f4426967ede3b9",
    ),
    ("asym", "learn_then_earn", 0.75): (
        "f0a8ebd875786c4570e40d28ce72fa11384a5be35d08793d9d6cdbea81a8a922",
        "d10ba55a9d564c189e6ed4f86d0b2461f93df0cfd5a094188026820ae25bdaf0",
        "bdf10443676af85080717f103b9d8761509e7fb06ee00f98a0e0988a84eb7978",
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
