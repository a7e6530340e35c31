"""Unit tests for the consolidated :class:`AnalysisOptions` record.

The record carries exactly the definedness knobs — ``demand``,
``resolver``, ``config`` and ``context_depth``; the pointer analysis
has none.  These tests pin the field set, the eager construction-time
validation, and the JSON round-trip used by ``repro serve``.
"""

from dataclasses import fields

import pytest

from repro.options import AnalysisOptions, options_from_args


class TestValidation:
    def test_defaults_are_all_none(self):
        options = AnalysisOptions()
        assert options.as_dict() == {}

    def test_fields_are_the_definedness_knobs(self):
        assert [f.name for f in fields(AnalysisOptions)] == [
            "demand", "resolver", "config", "context_depth",
        ]

    def test_bad_tier_fails_at_construction(self):
        # The pointer analysis has no knobs: a tier is not an option.
        with pytest.raises(TypeError, match="tier"):
            AnalysisOptions(tier="warp")

    def test_bad_jobs_fails_at_construction(self):
        with pytest.raises(TypeError, match="jobs"):
            AnalysisOptions(jobs=0)

    def test_bad_resolver_and_schedule(self):
        with pytest.raises(ValueError):
            AnalysisOptions(resolver="psychic")
        with pytest.raises(TypeError, match="schedule"):
            AnalysisOptions(schedule="fifo")

    def test_bad_demand_and_context_depth(self):
        with pytest.raises(ValueError):
            AnalysisOptions(demand="yes")
        with pytest.raises(ValueError):
            AnalysisOptions(context_depth=-1)

    def test_frozen(self):
        options = AnalysisOptions(resolver="summary")
        with pytest.raises(AttributeError):
            options.resolver = "callstring"


class TestCombinators:
    def test_merged_applies_only_non_none(self):
        base = AnalysisOptions(resolver="summary", context_depth=2)
        merged = base.merged(resolver=None, context_depth=3, demand=True)
        assert merged == AnalysisOptions(
            resolver="summary", context_depth=3, demand=True
        )
        # No overrides → the same (immutable) record comes back.
        assert base.merged() is base

    def test_dict_round_trip(self):
        options = AnalysisOptions(resolver="summary", demand=True)
        assert AnalysisOptions.from_dict(options.as_dict()) == options

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown analysis option"):
            AnalysisOptions.from_dict({"demand": True, "turbo": True})
        with pytest.raises(ValueError, match=r"option\(s\): tier$"):
            AnalysisOptions.from_dict({"tier": "full"})

    def test_from_dict_empty(self):
        assert AnalysisOptions.from_dict(None) == AnalysisOptions()
        assert AnalysisOptions.from_dict({}) == AnalysisOptions()


class TestCliBoundary:
    def test_options_from_args(self):
        class Args:
            demand = True
            config = "usher"

        options = options_from_args(Args())
        assert options == AnalysisOptions(demand=True, config="usher")

        class Bare:
            pass

        assert options_from_args(Bare()) == AnalysisOptions()
