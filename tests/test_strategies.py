import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entroute import strategies
from entroute.pair_algebra import (
    _swap2_raw,
    purification_success_prob,
    purified_fidelity,
    swap_fidelity,
)
from entroute.strategies import (
    RepeaterChain,
    _blocks,
    lemma1_delta,
    lemma1_scan,
    optimal_policy_fidelity,
    purify_and_swap,
    scan_points,
    success_margin,
    swap_and_purify,
    swap_purify_swap,
)


def test_single_hop_single_pair():
    out = purify_and_swap(RepeaterChain([[0.9]], swap_success=0.8))
    assert out.fidelity == pytest.approx(0.9)
    assert out.success_prob == pytest.approx(1.0)  # p_s^0


def test_two_hop_two_pairs_hand_value():
    chain = RepeaterChain([[0.75, 0.75], [0.75, 0.75]], swap_success=1.0)
    out = purify_and_swap(chain)
    f2 = purified_fidelity(0.75, 0.75)
    assert out.fidelity == pytest.approx(swap_fidelity([f2, f2]), abs=1e-12)
    assert out.success_prob == pytest.approx(purification_success_prob(0.75, 0.75) ** 2, abs=1e-12)


def test_three_node_formulas():
    # two hops, pairs (a,b) and (c,d); three-node closed forms
    a, b, c, d = 0.8, 0.8, 0.8, 0.8
    p_s = 0.9
    chain = RepeaterChain([[a, b], [c, d]], swap_success=p_s)
    pas = purify_and_swap(chain)
    sap = swap_and_purify(chain)
    assert pas.fidelity == pytest.approx(
        swap_fidelity([purified_fidelity(a, b), purified_fidelity(c, d)]), abs=1e-12
    )
    assert pas.success_prob == pytest.approx(
        purification_success_prob(a, b) * purification_success_prob(c, d) * p_s, abs=1e-12
    )
    assert sap.fidelity == pytest.approx(
        purified_fidelity(swap_fidelity([a, c]), swap_fidelity([b, d])), abs=1e-12
    )
    assert sap.success_prob == pytest.approx(
        purification_success_prob(swap_fidelity([a, c]), swap_fidelity([b, d])) * p_s**2,
        abs=1e-12,
    )


def test_counterexample_point():
    # outside the scanned advantage region swap-first can win by a whisker
    delta = lemma1_delta(0.5, 1.0, 0.699, 1.0)
    assert delta < 0
    assert abs(delta) == pytest.approx(4e-5, abs=1e-5)
    # the strategy functions are not tied to the fixed two-pair circuits
    # here: maximal-fidelity hop purification just keeps the perfect pairs
    chain = RepeaterChain([[0.5, 1.0], [0.699, 1.0]])
    pas = purify_and_swap(chain)
    assert pas.fidelity == pytest.approx(1.0, abs=1e-12)
    assert pas.success_prob == pytest.approx(1.0, abs=1e-12)


def test_discard_beats_bad_merge():
    # F(f, 1) = 3f/(2f+1) < 1, so folding a weak pair into a perfect one
    # loses fidelity; the hop should leave it unused
    out = purify_and_swap(RepeaterChain([[0.7, 1.0]]))
    assert out.fidelity == pytest.approx(1.0, abs=1e-12)
    assert out.success_prob == pytest.approx(1.0, abs=1e-12)
    assert purified_fidelity(0.7, 1.0) == pytest.approx(3 * 0.7 / 2.4, abs=1e-12)


def test_perfect_pairs():
    chain = RepeaterChain([[1.0, 1.0], [1.0, 1.0]], swap_success=0.9)
    out = swap_and_purify(chain)
    assert out.fidelity == pytest.approx(1.0, abs=1e-12)
    assert out.success_prob == pytest.approx(0.9**2, abs=1e-12)


def test_success_margin_frozen():
    m = success_margin(0.7, 0.7, 0.7, 0.7, p_s=0.818)
    assert m == pytest.approx(4e-4, abs=5e-5)
    assert purification_success_prob(0.7, 0.7) == pytest.approx(0.68, abs=1e-12)
    assert swap_fidelity([0.7, 0.7]) == pytest.approx(0.52, abs=1e-12)


def test_success_comparison_at_07():
    chain = RepeaterChain([[0.7, 0.7], [0.7, 0.7]], swap_success=0.818)
    pas = purify_and_swap(chain)
    sap = swap_and_purify(chain)
    assert sap.success_prob < pas.success_prob


def test_degenerations_bit_exact():
    chain = RepeaterChain(
        [[0.9, 0.92], [0.87, 0.95], [0.91, 0.9], [0.88, 0.93], [0.9, 0.9], [0.94, 0.89]],
        swap_success=0.85,
    )
    pas = purify_and_swap(chain)
    sps_l = swap_purify_swap(chain, chain.length)
    assert sps_l.fidelity == pas.fidelity
    assert sps_l.success_prob == pas.success_prob
    sap = swap_and_purify(chain)
    sps_1 = swap_purify_swap(chain, 1)
    assert sps_1.fidelity == sap.fidelity
    assert sps_1.success_prob == sap.success_prob


def test_sps_between_extremes():
    import random

    rng = random.Random(42)
    chain = RepeaterChain(
        [[rng.uniform(0.85, 0.99)] * 2 for _ in range(6)], swap_success=0.9
    )
    pas = purify_and_swap(chain).fidelity
    sap = swap_and_purify(chain).fidelity
    mid = swap_purify_swap(chain, 3).fidelity
    assert sap - 1e-12 <= mid <= pas + 1e-12


def test_permutation_invariance():
    a = RepeaterChain([[0.8, 0.95], [0.9, 0.85]])
    b = RepeaterChain([[0.95, 0.8], [0.85, 0.9]])
    assert purify_and_swap(a).fidelity == pytest.approx(purify_and_swap(b).fidelity, abs=1e-15)
    # strands re-pair under permutation, so only PAS must be invariant


def test_chain_validation():
    with pytest.raises(ValueError):
        RepeaterChain([])
    with pytest.raises(ValueError):
        RepeaterChain([[0.9], []])
    with pytest.raises(ValueError):
        RepeaterChain([[0.9]], swap_success=0.0)
    with pytest.raises(ValueError):
        swap_and_purify(RepeaterChain([[0.9, 0.9], [0.9]]))
    with pytest.raises(ValueError):
        swap_purify_swap(RepeaterChain([[0.9], [0.9]]), 3)


def test_lemma1_scan_coarse():
    report = lemma1_scan(0.05)
    assert report["lemma1"]["violations"] == 0
    assert report["low"]["win_fraction"] == 1.0
    assert report["low"]["min_delta"] > 0
    assert report["success"]["min_margin"] > 0
    for step in (0.5, 0.0009, 1e-320):
        with pytest.raises(ValueError, match=r"step must lie in \[0.001, 0.1\]"):
            lemma1_scan(step)


def test_scan_points_rows():
    rows = list(scan_points("low", 0.1))
    assert len(rows) == 3**4
    assert all(r[5] == "pas" for r in rows)
    with pytest.raises(ValueError):
        next(scan_points("bogus", 0.1))


def test_scan_blocks_hold_one_a_slice():
    # a scan's memory is one a-slice of its grid, whatever the step
    slices = 0
    for a, b, c, d, values in _blocks("lemma1", 0.01, lambda a, b, c, d: a + b + c + d):
        assert values.shape[0] == 1 and values.shape == (1, 51, 31, 31)
        slices += 1
    assert slices == 51


def test_scan_grid_stays_inside_its_region():
    # a step that does not divide the range stops short of the upper end
    bounds = {"lemma1": ((0.5, 1.0), (0.7, 1.0)), "low": ((0.5, 0.7), (0.5, 0.7))}
    for step in (0.03, 0.07, 0.08):
        for region, (ab, cd) in bounds.items():
            for row in scan_points(region, step):
                for x, (lo, hi) in zip(row[:4], (ab, ab, cd, cd)):
                    assert lo - 1e-12 <= x <= hi + 1e-12, (region, step, row)
    assert lemma1_scan(0.08)["lemma1"]["violations"] == 0


def test_policy_oracle_simple_chain():
    # one hop, two pairs: the only useful policy is the single merge
    chain = RepeaterChain([[0.8, 0.8]])
    assert optimal_policy_fidelity(chain) == pytest.approx(
        purified_fidelity(0.8, 0.8), abs=1e-12
    )


def test_policy_oracle_matches_pas_on_homogeneous_chain():
    chain = RepeaterChain([[0.8, 0.8], [0.9, 0.9]], swap_success=0.8)
    best = optimal_policy_fidelity(chain)
    pas = purify_and_swap(chain)
    assert best <= pas.fidelity + 1e-9
    # the oracle can always replay purify-and-swap itself
    assert best >= pas.fidelity - 1e-9


def test_policy_oracle_can_discard():
    # heterogeneous hop: both the oracle and maximal-fidelity hop
    # purification leave the weak pair unused
    chain = RepeaterChain([[0.7, 1.0], [1.0]])
    best = optimal_policy_fidelity(chain)
    assert best == pytest.approx(1.0, abs=1e-12)
    pas = purify_and_swap(chain)
    assert pas.fidelity == pytest.approx(best, abs=1e-12)


def test_policy_oracle_bound():
    with pytest.raises(ValueError):
        optimal_policy_fidelity(RepeaterChain([[0.9] * 5, [0.9] * 4]))


def _state_search_fidelity(chain: RepeaterChain) -> float:
    """The policy oracle as a search over states (multisets of (u, v, f)
    pairs), every interleaving of purifications and swaps: the reference
    that optimal_policy_fidelity's tree enumeration must equal exactly."""
    l = chain.length
    init = []
    for hop_idx, pairs in enumerate(chain.hops):
        for f in pairs:
            init.append((hop_idx, hop_idx + 1, f))
    memo: dict = {}

    def value(state: tuple) -> float:
        hit = memo.get(state)
        if hit is not None:
            return hit
        best = -1.0
        for u, v, f in state:
            if u == 0 and v == l:
                if f > best:
                    best = f
        n = len(state)
        for i in range(n):
            ui, vi, fi = state[i]
            for j in range(i + 1, n):
                uj, vj, fj = state[j]
                if ui == uj and vi == vj:
                    merged = (ui, vi, purified_fidelity(fi, fj))
                elif vi == uj:
                    merged = (ui, vj, _swap2_raw(fi, fj))
                elif vj == ui:
                    merged = (uj, vi, _swap2_raw(fj, fi))
                else:
                    continue
                rest = state[:i] + state[i + 1 : j] + state[j + 1 :]
                nxt = tuple(sorted(rest + (merged,)))
                cand = value(nxt)
                if cand > best:
                    best = cand
        memo[state] = best
        return best

    return value(tuple(sorted(init)))


@st.composite
def _small_chains(draw):
    # ties come from the sampled values; the floats fill in between
    fid = st.one_of(st.sampled_from([0.25, 0.5, 0.7, 0.8, 0.9, 1.0]), st.floats(0.25, 1.0))
    hops = []
    for _ in range(draw(st.integers(1, 4))):
        room = 6 - sum(map(len, hops)) - 1
        if room < 0:
            break
        hops.append(draw(st.lists(fid, min_size=1, max_size=min(3, room + 1))))
    return hops


@settings(max_examples=200, deadline=None)
@given(_small_chains())
def test_policy_oracle_matches_state_search(hops):
    """The tree enumeration returns the state search's float exactly.  It
    fails if the purify branch is dropped (one hop of two pairs) or if only
    the mask of all pairs is scored (a weak pair that should go unused)."""
    chain = RepeaterChain(hops, swap_success=0.8)
    assert optimal_policy_fidelity(chain) == _state_search_fidelity(chain)


def test_policy_layout_cache_stays_bounded():
    # one chain per layout of 1 to 8 pairs (a composition of n: 2**(n-1)
    # of them), then chains over the bound, which must not be cached
    layouts = [
        _composition(n, cuts)
        for n in range(1, 9)
        for cuts in itertools.product((False, True), repeat=n - 1)
    ]
    assert len(layouts) == len(set(layouts)) == 255
    for counts in layouts:
        optimal_policy_fidelity(RepeaterChain([[1.0] * k for k in counts]))
    for counts in ((9,), (4, 5), (1,) * 9):
        with pytest.raises(ValueError, match="bounded at 8"):
            optimal_policy_fidelity(RepeaterChain([[1.0] * k for k in counts]))
    assert strategies._policy_layout.cache_info().currsize <= 255


def _composition(n, cuts):
    counts, run = [], 1
    for cut in cuts:
        if cut:
            counts.append(run)
            run = 1
        else:
            run += 1
    return tuple(counts + [run])


@pytest.mark.parametrize("hops", [[[0.1]], [[0.9], [0.2]], [[0.9, 1.5]], [[0.9], [0.8, 0.9, float("nan")]]])
def test_policy_oracle_checks_every_initial_pair(hops):
    # a pair that no policy merges is checked too, as [[0.1]]'s only pair
    with pytest.raises(ValueError, match="outside"):
        optimal_policy_fidelity(RepeaterChain(hops))
