"""The inference differential battery and its CLI stage."""

from repro.check.cli import STAGES, build_parser, main
from repro.check.inference import CHECK_SHAPES, run_inference_check


class TestBattery:
    def test_full_battery_passes(self):
        report = run_inference_check()
        assert report.ok, report.render()
        assert report.runs > 0
        assert report.fields_compared > 0

    def test_shapes_cover_every_workload(self):
        assert set(CHECK_SHAPES) == {"gemv", "embed", "kvcache"}

    def test_render_mentions_inference(self):
        assert run_inference_check().render().startswith("inference:")


class TestCLI:
    def test_inference_is_a_stage(self):
        assert "inference" in STAGES

    def test_stage_selector_parses(self):
        args = build_parser().parse_args(["inference"])
        assert args.stages == ["inference"]

    def test_positional_stage_runs_only_inference(self, capsys):
        assert main(["inference"]) == 0
        out = capsys.readouterr().out
        assert "inference:" in out
        # No other stage banners: the selector really is exclusive.
        assert "fastpath:" not in out
