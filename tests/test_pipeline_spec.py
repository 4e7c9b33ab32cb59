"""Tests for the pass registry and the textual pipeline syntax."""

import pytest

from repro.passes import (
    PassSpec, PipelineSpec, PipelineSyntaxError, build_passes, format_pipeline,
    make_pass_spec, parse_pipeline, pass_info, pass_names,
)
from repro.pipelines import (
    LEVEL_PIPELINES, OptLevel, build_pipeline, level_spec, level_spec_string,
    parse_opt_level, with_entry_points, with_runtime_checks,
)


class TestParseFormatRoundTrip:
    @pytest.mark.parametrize("level", list(OptLevel))
    def test_level_specs_round_trip(self, level):
        spec = level_spec(level)
        assert parse_pipeline(format_pipeline(spec)) == spec

    @pytest.mark.parametrize("level", list(OptLevel))
    def test_level_strings_are_canonical(self, level):
        text = level_spec_string(level)
        assert format_pipeline(parse_pipeline(text)) == text

    def test_round_trip_with_non_default_params(self):
        text = ("simplifycfg,inline<threshold=7,loops,const-bonus=3>,"
                "ifconvert<spec=9,no-safe-loads>,"
                "loop-unswitch<size=11,max=2>,globaldce<roots=a:b>")
        spec = parse_pipeline(text)
        assert format_pipeline(spec) == text
        assert parse_pipeline(format_pipeline(spec)) == spec

    def test_default_params_are_normalized_away(self):
        # threshold=100 and safe-loads are the defaults: canonical form
        # drops them, so equal pipelines compare equal as specs.
        assert parse_pipeline("inline<threshold=100>") == \
            parse_pipeline("inline")
        assert parse_pipeline("ifconvert<safe-loads>") == \
            parse_pipeline("ifconvert")

    def test_parameter_order_does_not_matter(self):
        assert parse_pipeline("inline<loops,threshold=5>") == \
            parse_pipeline("inline<threshold=5,loops>")

    def test_whitespace_is_tolerated(self):
        assert parse_pipeline(" simplifycfg , mem2reg ") == \
            parse_pipeline("simplifycfg,mem2reg")

    def test_empty_pipeline(self):
        assert parse_pipeline("") == PipelineSpec()
        assert format_pipeline(PipelineSpec()) == ""


class TestErrors:
    def test_unknown_pass_names_the_candidates(self):
        with pytest.raises(PipelineSyntaxError, match="unknown pass 'sroa2'"):
            parse_pipeline("simplifycfg,sroa2")
        with pytest.raises(PipelineSyntaxError, match="simplifycfg"):
            # the error lists the known passes
            parse_pipeline("bogus")

    def test_unknown_parameter_lists_known_keys(self):
        with pytest.raises(PipelineSyntaxError,
                           match=r"no parameter 'thresh'.*threshold"):
            parse_pipeline("inline<thresh=1>")

    def test_non_integer_value(self):
        with pytest.raises(PipelineSyntaxError,
                           match="expects an integer, got 'many'"):
            parse_pipeline("inline<threshold=many>")

    @pytest.mark.parametrize("text, pass_name, key", [
        ("inline<threshold=-5>", "inline", "threshold"),
        ("loop-unroll<trips=-1>", "loop-unroll", "trips"),
        ("ifconvert<spec=-1>", "ifconvert", "spec"),
        ("loop-unswitch<max=-2>", "loop-unswitch", "max"),
    ])
    def test_negative_integer_value(self, text, pass_name, key):
        """A negative budget or threshold used to be accepted and do
        nothing; every way of building a spec now refuses it."""
        message = (f"pass '{pass_name}': parameter '{key}' expects an "
                   f"integer >= 0, got -")
        with pytest.raises(PipelineSyntaxError, match=message):
            parse_pipeline(text)
        field = key.replace("-", "_")
        with pytest.raises(PipelineSyntaxError, match=message):
            make_pass_spec(pass_name, **{field: -1})
        with pytest.raises(PipelineSyntaxError, match=message):
            PassSpec(pass_name).with_param(key, -1)

    def test_zero_integer_value_is_accepted(self):
        assert parse_pipeline("ifconvert<spec=0>").passes[0].param("spec") \
            == 0

    def test_flag_used_with_bare_value_pass(self):
        with pytest.raises(PipelineSyntaxError, match="needs a value"):
            parse_pipeline("inline<threshold>")

    def test_duplicate_parameter(self):
        with pytest.raises(PipelineSyntaxError, match="duplicate parameter"):
            parse_pipeline("inline<threshold=1,threshold=2>")

    def test_unbalanced_brackets(self):
        with pytest.raises(PipelineSyntaxError, match="unbalanced"):
            parse_pipeline("inline<threshold=1")

    def test_empty_name_list(self):
        with pytest.raises(PipelineSyntaxError, match="non-empty name"):
            parse_pipeline("globaldce<roots=>")


class TestRegistry:
    def test_every_level_pass_is_registered(self):
        known = set(pass_names())
        for level in OptLevel:
            for name in level_spec(level).pass_names():
                assert name in known

    def test_build_matches_textual_spec(self):
        spec = parse_pipeline("inline<threshold=5000,loops,const-bonus=100>")
        (inliner,) = build_passes(spec)
        assert inliner.params.threshold == 5000
        assert inliner.params.allow_loops is True
        assert inliner.params.constant_arg_bonus == 100

    def test_globaldce_roots_build(self):
        spec = parse_pipeline("globaldce<roots=main:wc_entry>")
        (gdce,) = build_passes(spec)
        assert gdce.roots == {"main", "wc_entry"}

    def test_make_pass_spec_normalizes(self):
        spec = make_pass_spec("ifconvert", spec=64, safe_loads=True)
        assert spec == parse_pipeline("ifconvert<spec=64>").passes[0]

    def test_with_param_round_trips_through_default(self):
        spec = make_pass_spec("inline", threshold=9)
        assert spec.with_param("threshold", 100) == PassSpec("inline")

    def test_pass_info_exposes_description(self):
        assert pass_info("mem2reg").description


class TestLevelsAsData:
    @pytest.mark.parametrize("level", list(OptLevel))
    def test_build_pipeline_matches_parsed_spec(self, level):
        # The acceptance criterion: the built pipeline and the parsed
        # textual spec name identical pass sequences.
        built = [p.name for p in build_pipeline(level).passes]
        parsed = parse_pipeline(level_spec_string(level)).pass_names()
        assert built == parsed

    def test_every_level_has_a_pipeline_string(self):
        assert set(LEVEL_PIPELINES) == set(OptLevel)

    def test_entry_points_transform(self):
        # -O2 prunes with globaldce before its first pass and again at the
        # end; the roots must reach both.
        spec = with_entry_points(level_spec(OptLevel.O2), {"main", "aux"})
        gdces = [p for p in spec if p.name == "globaldce"]
        assert len(gdces) == 2
        assert all(p.param("roots") == ("aux", "main") for p in gdces)
        # and the built passes agree
        pipeline = build_pipeline(OptLevel.O2, entry_points={"main", "aux"})
        gdce_passes = [p for p in pipeline.passes if p.name == "globaldce"]
        assert len(gdce_passes) == 2
        assert all(p.roots == {"aux", "main"} for p in gdce_passes)

    def test_runtime_checks_transform(self):
        spec = level_spec(OptLevel.OVERIFY)
        assert "runtime-checks" in spec.pass_names()
        without = with_runtime_checks(spec, False)
        names = without.pass_names()
        assert "runtime-checks" not in names
        # the cleanup simplifycfg that followed the checks went with it,
        # but the trailing annotate stage stays
        assert names[-1] == "annotate"
        assert len(names) == len(spec.pass_names()) - 2
        assert with_runtime_checks(spec, True) == spec

    def test_parse_opt_level_spellings(self):
        assert parse_opt_level("-O2") is OptLevel.O2
        assert parse_opt_level("O2") is OptLevel.O2
        assert parse_opt_level("overify") is OptLevel.OVERIFY
        with pytest.raises(ValueError, match="unknown optimization level"):
            parse_opt_level("-O9")
