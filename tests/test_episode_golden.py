"""Episode outputs pinned per policy kind.

The digests are sha256s of the price, reference and demand arrays of one
episode (T = 3000, bounded-uniform noise, seed 7), recorded before episodes
were posted in blocks.  Every kind keeps its bytes from r1 = 0, and the
learner and the myopic policy from any r1.  A planned path from r1 != 0 keeps
its prices, but its references now come from the simulator's sequential
running total instead of r1 + cumsum(prices); they must stay within
``REF_ULPS`` of ``induced_references`` (3 ulps measured up to T = 10^5), and
the demands must follow from them and the seed's noise draws.
``induced_references`` lives here as that oracle; the package no longer sums
references as r1 + cumsum(prices) anywhere.  The ``markdown_oracle`` and
``learn_then_earn`` digests, whose prices come from a solved curve, were
re-captured when the curve solver became a numpy scan; their arrays moved by
at most 1.2e-14.  They were re-captured again when the solver came to roll
blocks of rounds: prices moved by at most 1.1e-14, references by 4.9e-15,
demands by 1.4e-14 and revenues by 8.5e-15.  The two asymmetric ``optimal_fixed`` digests were
re-captured when the best fixed price became a closed form instead of a
10,001-point grid: the price moved from 0.8488 to 0.848786 at r1 = 0 and from
0.8493 to 0.849321 at r1 = 0.75 (prices and references by at most 2.2e-5,
demands by 3.3e-5), and each episode's value rose.
"""

import hashlib

import numpy as np
import pytest

from refprice import Instance, NoiseSpec, run_episode
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
        "bb6ac0646ef17953d8974f4b464e5925a31a806520fdfc540241c5b6b59fd467",
        "3daf3369bbcd342c84b7c4005efb97c92b4f44064bb695a7fb7693e1841eddad",
        "a7bb054bce0887c8a7c25416742ac991ab62d10ab404f2b6ef34fd4cee7e77af",
    ),
    ("sym", "markdown_oracle", 0.75): ("76aea6f1fd88adabcda759a35003ceee51e32226ab61c0ac7e578ac3af86b188", None, None),
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
        "1fae8b45b04c58f2e9be231b6e8a99b954eefa538c894bd466454f2e971907df",
        "a436f23d911731c161ee23d40dc30cc3a603bf78d62689cd69f974482a0e7a91",
        "3de7c0adf49aa80f1fcc07eb0d8afe2714168e73a7a539c1df9ff65e8477a8bf",
    ),
    ("sym", "learn_then_earn", 0.75): (
        "7df409b0a1103205ecf7f39a970bd4a4932446d71bef8f5014041e9be0b0c0e9",
        "f632c459806854d6422ad7dba1e45308082a3f5bf6970603cda641e4313ffb3c",
        "eaac6c0609c87488f557d03f87f53ae2a508c46350d3c26c2c38b52d6b6a3c91",
    ),
    ("asym", "fixed", 0.0): (
        "76bd0612031f3c4b4f05e666670fd80e5bf943c81db0ac010bc1bb364e133c8d",
        "c6b763d69c79311670ed059f140c312c51e96ce0db58cf5f98c2d3c33dc3568a",
        "e0eafef6a5d8ae8ebc33b37ea924cce343402454bd0e552c0b96833849f53026",
    ),
    ("asym", "fixed", 0.75): ("76bd0612031f3c4b4f05e666670fd80e5bf943c81db0ac010bc1bb364e133c8d", None, None),
    ("asym", "optimal_fixed", 0.0): (
        "16394202d4046ce31a34b48100d6f8a4bb31d94dfda4e100c0ad9228c939faf2",
        "3578d9580156eb8505165280196cd53ccf84285276bbc4686f4861772e713993",
        "a42df63f879b520cafbdecdd31d2252fbfce6c53b64a25c6d93b801da1240404",
    ),
    ("asym", "optimal_fixed", 0.75): ("43263fb3e5e2d13c48420a130f593a592b15b43b68e1a35cc71a784bc2d84b4d", None, None),
    ("asym", "markdown_oracle", 0.0): (
        "8ce5e0c5c6548ad3bee9c79367a52cc18467f1e3bd2da9a48dbdd59e33ceb4fe",
        "7b452497d83854d75a9a76b8f60914a972c1f547f1df10c67d3265828dd88e9c",
        "f06d547045fd28915d405160dbb7d4fad0623d35ba33f46d17b8da96ad5976a8",
    ),
    ("asym", "markdown_oracle", 0.75): ("8ce5e0c5c6548ad3bee9c79367a52cc18467f1e3bd2da9a48dbdd59e33ceb4fe", None, None),
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
        "bfb1355d25c1cff0dc91173a029c0ae66a0b4af3226c81846cff508b9c70919a",
        "74c11a93c2c6face45af9c648cec49221757c3843af8d2ec32e968d704e55d8b",
        "7d47a8a67962d943b05cfccc93d63cd8a79246339ea7beae4c3a6c46d5cc8f7d",
    ),
    ("asym", "learn_then_earn", 0.75): (
        "0133bb0dc19f6244070bdf11a7fc673698058deb7d68d28f6190806ed983595a",
        "d3308b82879b6cca99120f431d9ddad9464fe6266951125b8a5592d0aae2db6f",
        "85513001bb186fc27f394eca07fddc0e272e4cbbd55b55a6442acd43a2a68bb9",
    ),
}


def induced_references(prices: np.ndarray, t_start: int, r_start: float) -> np.ndarray:
    """Running-average references along a given price path, r[0] = r_start,
    summed as r_start*t_start plus a cumsum: the oracle for the simulator's
    sequential running total."""
    prices = np.asarray(prices, dtype=float)
    n = len(prices)
    t = np.arange(t_start, t_start + n, dtype=float)
    sums = t_start * r_start + np.concatenate([[0.0], np.cumsum(prices[:-1])])
    return sums / t


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
