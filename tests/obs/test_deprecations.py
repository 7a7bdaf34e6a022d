"""Legacy entry points and keyword spellings: removed, not aliased."""

import warnings

import pytest

import repro.core as core
from repro import BSPParams, LogPParams, RoutingConfig
from repro.errors import ParameterError
from repro.programs import bsp_prefix_program

PARAMS = LogPParams(p=4, L=8, o=1, G=2)


class TestLegacyWrappers:
    """The package-level ``repro.core`` wrappers are gone; the submodule
    drivers the Stack adapters call stay warning-free."""

    def test_unknown_attribute_still_raises(self):
        with pytest.raises(AttributeError, match="no_such_thing"):
            core.no_such_thing
        for legacy in ("simulate_bsp_on_logp", "simulate_logp_on_bsp"):
            with pytest.raises(AttributeError, match=legacy):
                getattr(core, legacy)

    def test_submodule_drivers_do_not_warn(self):
        from repro.core.bsp_on_logp import simulate_bsp_on_logp

        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            simulate_bsp_on_logp(PARAMS, bsp_prefix_program())


class TestParamAliases:
    """Each model quantity has one keyword: the paper's letter, in the
    paper's case.  Long and cross-model spellings are not keywords."""

    # The next four cases keep the names they had when the long spellings
    # were silent aliases and the cross-model ones warned; both kinds are
    # now a TypeError, and only the paper's letters construct.

    def test_bsp_canonical_aliases_are_silent(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            p = BSPParams(p=4, g=2, l=16)
        assert (p.p, p.g, p.l) == (4, 2, 16)
        with pytest.raises(TypeError, match="processors"):
            BSPParams(processors=4, g=2, l=16)
        with pytest.raises(TypeError, match="gap"):
            BSPParams(p=4, gap=2, l=16)

    def test_logp_canonical_aliases_are_silent(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            p = LogPParams(p=4, L=8, o=1, G=2, Gb=1)
        assert (p.p, p.L, p.o, p.G, p.Gb) == (4, 8, 1, 2, 1)
        with pytest.raises(TypeError, match="word_gap"):
            LogPParams(p=4, L=8, o=1, G=2, word_gap=1)
        with pytest.raises(TypeError, match="overhead"):
            LogPParams(p=4, L=8, overhead=1, G=2)

    def test_bsp_cross_model_spellings_warn(self):
        with pytest.raises(TypeError, match="'G'"):
            BSPParams(p=4, G=2, l=16)
        with pytest.raises(TypeError, match="'L'"):
            BSPParams(p=4, g=2, L=16)

    def test_logp_cross_model_spellings_warn(self):
        with pytest.raises(TypeError, match="'g'"):
            LogPParams(p=4, L=8, o=1, g=2)
        with pytest.raises(TypeError, match="'l'"):
            LogPParams(p=4, l=8, o=1, G=2)

    def test_alias_plus_canonical_is_an_error(self):
        with pytest.raises(TypeError):
            BSPParams(p=4, g=2, gap=2, l=16)
        with pytest.raises(TypeError):
            LogPParams(p=4, L=8, latency=8, o=1, G=2)

    def test_positional_construction_still_works(self):
        assert BSPParams(4, 2, 16) == BSPParams(p=4, g=2, l=16)
        assert LogPParams(4, 8, 1, 2) == LogPParams(p=4, L=8, o=1, G=2)

    def test_validation_still_enforced(self):
        with pytest.raises(ParameterError):
            BSPParams(p=0, g=2, l=16)
        with pytest.raises(ParameterError):
            LogPParams(p=4, L=0, o=1, G=2)


class TestRoutingConfigSeed:
    def test_canonical_seed_is_silent(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            cfg = RoutingConfig(seed=7)
        assert cfg.seed == 7
