import math

import numpy as np
import pytest

from tokenskip.model import ModelConfig
from tokenskip.policy import (
    ConfigError,
    PruneConfig,
    parse_config_text,
    per_layer_target,
    config_from_mapping,
    select_layers,
    update_threshold,
)


class TestPruneConfig:
    def test_defaults_valid(self):
        cfg = PruneConfig()
        assert (cfg.fusion, cfg.anchor_mode) == ("kv", "ema")
        assert cfg.cache_on_skip == "drop"

    def test_rejects_unreachable_budget_for_focused_modes(self):
        with pytest.raises(ConfigError):
            PruneConfig(p_global=0.6, tail_fraction=0.5)

    def test_rejects_bad_ranges(self):
        with pytest.raises(ConfigError):
            PruneConfig(p_global=1.5)
        with pytest.raises(ConfigError):
            PruneConfig(gamma=1.0)
        with pytest.raises(ConfigError):
            PruneConfig(eta=0.0)
        with pytest.raises(ConfigError):
            PruneConfig(warmup_steps=-1)
        with pytest.raises(ConfigError):
            PruneConfig(fusion="middle")

    @pytest.mark.parametrize("eta", [math.nan, math.inf, -math.inf, 1e308, 1.0000001, 0.0, -0.5])
    def test_rejects_an_eta_outside_zero_to_one(self, eta):
        with pytest.raises(ConfigError, match="eta"):
            PruneConfig(eta=eta)

    def test_accepts_an_eta_of_one(self):
        assert PruneConfig(eta=1.0).eta == 1.0

    def test_inf_tau_is_allowed_as_never_skip(self):
        cfg = PruneConfig(tau_init=math.inf)
        assert math.isinf(cfg.tau_init)


class TestSelectLayers:
    def test_forty_layers_half_tail(self):
        assert select_layers(40, 0.5) == tuple(range(20, 40))

    def test_full_fraction_selects_all(self):
        assert select_layers(12, 1.0) == tuple(range(12))

    def test_ceiling_rule(self):
        # ceil(0.5 * 7) = 4 trailing layers
        assert select_layers(7, 0.5) == (3, 4, 5, 6)


class TestPerLayerTarget:
    def test_paper_operating_point(self):
        assert per_layer_target(PruneConfig(p_global=0.25, tail_fraction=0.5)) == 0.5

    def test_zero_budget(self):
        assert per_layer_target(PruneConfig(p_global=0.0, tail_fraction=0.7)) == 0.0

    def test_inflation_arithmetic(self):
        cfg = PruneConfig(p_global=0.33, tail_fraction=0.4)
        assert per_layer_target(cfg) == pytest.approx(0.825, abs=1e-12)

    def test_full_fraction_uses_global_budget(self):
        assert per_layer_target(PruneConfig(p_global=0.33, tail_fraction=1.0)) == 0.33


class TestUpdateThreshold:
    def test_fixed_point(self):
        assert update_threshold(0.5, 0.4, 0.4, 0.01) == 0.5

    def test_underskipping_lowers_tau(self):
        assert update_threshold(0.5, 0.3, 0.5, 0.01) == pytest.approx(0.498, abs=1e-12)

    def test_overskipping_raises_tau(self):
        assert update_threshold(0.5, 0.7, 0.5, 0.01) == pytest.approx(0.502, abs=1e-12)

    def test_sign_correctness_property(self):
        rng = np.random.default_rng(61)
        for _ in range(300):
            tau = float(rng.uniform(-1, 1))
            rc = float(rng.uniform(0, 1))
            rt = float(rng.uniform(0, 1))
            eta = float(rng.uniform(1e-4, 0.1))
            new = update_threshold(tau, rc, rt, eta)
            if rc < rt:
                assert new < tau
            elif rc > rt:
                assert new > tau
            else:
                assert new == tau

    @pytest.mark.parametrize("eta", [math.nan, math.inf, 1e308, 1.0000001, 0.0, -0.5])
    def test_rejects_an_eta_outside_zero_to_one(self, eta):
        with pytest.raises(ConfigError, match="eta"):
            update_threshold(0.5, 0.3, 0.5, eta)

    def test_clamped_to_reachable_range(self):
        assert update_threshold(-0.999, 0.0, 1.0, 0.5) == -1.0
        assert update_threshold(1.49, 1.0, 0.0, 0.01) == pytest.approx(1.01, abs=1e-12)

    def test_infinite_tau_is_preserved(self):
        assert update_threshold(math.inf, 0.0, 1.0, 0.01) == math.inf


class TestControllerConvergence:
    """Closed-loop check against a brute-force quantile oracle."""

    def _simulate(self, target, steps=5000, eta=0.01, seed=0):
        rng = np.random.default_rng(seed)
        scores = rng.normal(0.5, 0.15, size=steps)
        gamma, ratio = 0.9, None
        tau = 0.9
        skips = 0
        taus = []
        for t in range(steps):
            skip = scores[t] > tau
            skips += int(skip)
            # An EMA of the skip indicator, seeded with the first one.
            ratio = float(skip) if ratio is None else gamma * ratio + (1.0 - gamma) * float(skip)
            tau = update_threshold(tau, ratio, target, eta)
            taus.append(tau)
        return skips / steps, float(np.mean(taus[-1000:]))

    @pytest.mark.parametrize("target", [0.2, 0.33, 0.5])
    def test_ratio_and_tau_converge(self, target):
        oracle = np.random.default_rng(1234)
        quantile = float(np.quantile(oracle.normal(0.5, 0.15, size=1_000_000), 1.0 - target))
        for seed in range(3):
            ratio, tau = self._simulate(target, seed=seed)
            assert abs(ratio - target) <= 0.02
            assert abs(tau - quantile) <= 0.02

    def test_decision_monotone_in_tau(self):
        rng = np.random.default_rng(62)
        scores = rng.uniform(-1, 1, size=1000)
        lo, hi = 0.2, 0.4
        assert np.sum(scores > lo) >= np.sum(scores > hi)


class TestConfigParsing:
    def test_key_value_format(self):
        text = "p_global = 0.2\n# comment\ngamma=0.85\ntail_fraction=1.0\n"
        mapping = parse_config_text(text)
        cfg = config_from_mapping(PruneConfig(), mapping)
        assert cfg.p_global == 0.2
        assert cfg.gamma == 0.85
        assert cfg.tail_fraction == 1.0

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigError, match="bogus"):
            config_from_mapping(PruneConfig(), {"bogus": "1"})

    def test_malformed_line_names_the_line(self):
        with pytest.raises(ConfigError, match="line 2"):
            parse_config_text("p_global=0.2\nnot a pair\n")

    def test_a_repeated_key_names_both_lines(self):
        with pytest.raises(ConfigError,
                           match=r"^line 3: duplicate key 'p_global' \(first on line 1\)$"):
            parse_config_text("p_global=0.1\n# gamma=0.5\np_global = 0.4\n")

    def test_overrides_start_from_base(self):
        base = PruneConfig(p_global=0.1)
        cfg = config_from_mapping(base, {"eta": "0.02"})
        assert cfg.p_global == 0.1
        assert cfg.eta == 0.02

    def test_builds_a_model_config_from_its_base(self):
        base = ModelConfig(seed=4)
        cfg = config_from_mapping(base, {"n_layers": "3", "max_seq": 64})
        assert cfg == ModelConfig(n_layers=3, max_seq=64, seed=4)
        assert base == ModelConfig(seed=4)

    @pytest.mark.parametrize("base, key", [(PruneConfig(), "n_layers"),
                                           (ModelConfig(), "gamma")])
    def test_unknown_field_names_the_config_class(self, base, key):
        with pytest.raises(ConfigError, match=f"^unknown {type(base).__name__} field: {key}$"):
            config_from_mapping(base, {key: "1"})

    def test_fractional_int_field_names_the_field(self):
        with pytest.raises(ConfigError, match="^n_heads must be an integer, got '2.5'$"):
            config_from_mapping(ModelConfig(), {"n_heads": "2.5"})
