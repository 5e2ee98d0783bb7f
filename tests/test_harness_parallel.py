"""Matrix runner equivalence tests: in process (``jobs=1``) and pooled.

:class:`~repro.harness.parallel.ParallelEvaluationRunner` is the only
matrix executor.  Every ``jobs`` value must give the same results
(bit-identical, not approximately equal), the same ordering and the same
bookkeeping shape.  The matrix under test is ``quick_matrix()`` -- every
(configuration, workload) pair of the evaluation -- with the request counts
scaled down (via ``dataclasses.replace`` of the scale) so the 2x85 replays
stay test-suite fast while still covering every pair.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.analysis.runtime import result_digest
from repro.harness.experiments import EvaluationMatrix, quick_matrix
from repro.harness.parallel import ParallelEvaluationRunner, available_cpus

#: SHA-256 of each pair's ``WorkloadResult.to_dict()`` on
#: ``_small_quick_matrix()``, frozen from the former dedicated serial runner
#: when it was folded into ``ParallelEvaluationRunner``: any executor change
#: that moves a single field of a single pair fails here.
GOLDEN_DIGESTS = {
    "LMesh/ECM/Uniform": "368a822fd367703cbcbd9eb6454c68ee9aaea69ae671eaca95defcc8d3ea57b6",
    "HMesh/ECM/Uniform": "b6e4dd6cc4e5d2893401f06c874f85f3e706919ac3f635aaa4c97a2beb4f88d8",
    "LMesh/OCM/Uniform": "35aaae9c46b1abecfd824b80469c2081f0e9117475e5f91fa1d4bc52c74ae2a6",
    "HMesh/OCM/Uniform": "75c2b18eca4f0b4b4608895d033203bcab1d5377f5f811a79dec9c003fee24de",
    "XBar/OCM/Uniform": "0e4df86ab90d61cb6a6dca1999fc5e8badf8e37c0a76b9a74c0e11897c3123d3",
    "LMesh/ECM/Hot Spot": "ce36a4995f403d37ccb50f62e976d1e283b1eeb825018470ea7c94b452c722aa",
    "HMesh/ECM/Hot Spot": "f3996753096778d7b7c9ad72a7f72d5cb52a2a02f5faaa5f4d30e04d49dc9a4b",
    "LMesh/OCM/Hot Spot": "45040a79f085c5e4294a550a3079c37827f1b4812a836756e50f301619059327",
    "HMesh/OCM/Hot Spot": "fafdae15da14764b378cbd5fa7d04864f8d1ffd8cb3b433821665592491e15b3",
    "XBar/OCM/Hot Spot": "d996cb34fe6d0ed1740b1cba0572314aa2d2884929bf128036ba81f43a0fbefc",
    "LMesh/ECM/Tornado": "ab61d63e02d3dbca7a7422e055cc8cfd585cd3653758f1e4d45c4c7ae973a57d",
    "HMesh/ECM/Tornado": "509fd8ec8b38047d0a9f3eff25f5a53bb9272be24b90924ccddb002f3ba6d280",
    "LMesh/OCM/Tornado": "fddb3d5550c8a75f59e8cf3008c7d415cd121761ef0239db0d47e8e3edf59b34",
    "HMesh/OCM/Tornado": "27835f778ee4cb772cd9158eea74f8973d1b5cfe286e7d4ab5c1758628b12000",
    "XBar/OCM/Tornado": "3ff60982b2a51deb4d7cc0b7e755c952204bf86567677a559708a3592317f15e",
    "LMesh/ECM/Transpose": "f70e679a8ed20111c9c3b9cbb1132b71ee6e6e8df3867eed05f920c777d6e154",
    "HMesh/ECM/Transpose": "c21a0013410efd4c73b8d6b9c86254b3a61e3b6cac1453861fce2a4b92f3b61b",
    "LMesh/OCM/Transpose": "90592d7ad5dc08c14fa508f06f57777b23527c9d90078a326c4120a5fc2f2208",
    "HMesh/OCM/Transpose": "3cc29fd97d28c75592d10eb32ef5f8530c46d5fd289fd240ca91b4c815ed824b",
    "XBar/OCM/Transpose": "e89c7ce053d626f98baed546938f0810b302285a58431870eb10ec6845ffec06",
    "LMesh/ECM/Bit Reversal": "5d36988541d7355f52bc13057f92e06d1fee9797003a1b7201bb01e73ae0fb26",
    "HMesh/ECM/Bit Reversal": "6be9f577fff0392a353ddf29bcd0e29bc3beaf27b22c0ee3af1d2391a5764532",
    "LMesh/OCM/Bit Reversal": "b65d9b99f415ed86b50f744bd90996032c1815ab17fec74bc330d8a6a3db349a",
    "HMesh/OCM/Bit Reversal": "5da2ebc621a4184309ceafd17af8ee555ea0c5f6f87cb3efea5da40077c83eb7",
    "XBar/OCM/Bit Reversal": "54144ee24bb3d56dfb856bc57b307eab71a6657d8fbe53f6893cc2d8cebde417",
    "LMesh/ECM/Neighbor": "2d17a7fce5aa3964b29e9bd065cd1dffdb0c4933ef946a978e618c294a0108ed",
    "HMesh/ECM/Neighbor": "a3f9a90975aaa98180a7a730beeb06f076d86a15aea55c2f90c54b63c028f455",
    "LMesh/OCM/Neighbor": "1728342d4846ff19e8ae82d59e6c5332367457ade6c151185508867e2b13967e",
    "HMesh/OCM/Neighbor": "22e8e2a2acd1fad49d47ac2148efd632cb785d95bef470972bb11bbd7ab20727",
    "XBar/OCM/Neighbor": "6b6bfc5d562d01fc56e020d77a3cc2d96165e3873fa0d751808c2bf8b0a336a8",
    "LMesh/ECM/Barnes": "8f25d3cb54721d255a949eaff34f900d516072c007797833fb5afbbe23697457",
    "HMesh/ECM/Barnes": "fb2e592b9aafd44446db7877c53fa114e3deba66b6316b4c24535e46f935d8f0",
    "LMesh/OCM/Barnes": "eb9efb0fdc4ca45b6fe4ed49c5af955e0d9cf178f1a39380dfa5dc14525ccfa9",
    "HMesh/OCM/Barnes": "8f2b80f081ed4d81e5c636bdf614dae5b9b02d0125b28a08288f869534456a0e",
    "XBar/OCM/Barnes": "9b48423c14cc594d50011fa77dbee7a10fcc723d5dbc64b4813c93c2349cd703",
    "LMesh/ECM/Cholesky": "8e08283e7b3bbebb06ea186888f39417b232660ad954ed4c842b5e0e92b9afec",
    "HMesh/ECM/Cholesky": "5d5c6f6ac9738f9cd3cefb97b5c4140effdbf6f15a70474b215429437368a95e",
    "LMesh/OCM/Cholesky": "b03be3dfda79ada56625de2d0de15cd4b343330be9cec934e05c10da8092ed30",
    "HMesh/OCM/Cholesky": "02c3a48acbdb7594574bd7e48559ed7705628e897f465dc53f357d6d4bce1547",
    "XBar/OCM/Cholesky": "70bfc053079e2a0ae26dfbfb9e89e45b220e0a696cf8f9669709bbbaef9fd56f",
    "LMesh/ECM/FFT": "d808f8ef40ed3ce01bc834e855a854f3bd0d3d050c92eb583619e9950e567b21",
    "HMesh/ECM/FFT": "b47a7ef3704dbb4a2bfdf8b97ba65c90cc584f22248e2e7e9dc5b34fd5c97f00",
    "LMesh/OCM/FFT": "5c4cb529775ae536a696becde0cc5bb101a5a8b7127818230e706207b850cf52",
    "HMesh/OCM/FFT": "1834578e4c0dd8b2e5eb1242a16e67880f9b3a15595a72a36861b4d5c628b68c",
    "XBar/OCM/FFT": "4b9de5539a17c14b16509371b6807e76b597a4bb3555def3f4aad66d20fd7624",
    "LMesh/ECM/FMM": "61e3ee4255500e389ed09b3d59ae118bef6d3c60770ed2113be5aafe706e63e0",
    "HMesh/ECM/FMM": "2820f2681c5ddc7e466ef2d55ae667b6fbda2726bdafbfebf448f1550a247215",
    "LMesh/OCM/FMM": "31918a42fd1baec583dec20dbd2952592ea516c2bd52f24bc3e5c9efb9bbb11e",
    "HMesh/OCM/FMM": "0bfb7cdef79b49993fc9a0f9d03576647f52e63d5451b50c477d408b597d2275",
    "XBar/OCM/FMM": "b653c64ef7acaab452d31be4490efbd092fc573371ccf1de2260e47900edce80",
    "LMesh/ECM/LU": "361419c59afe5ebeda3fa50df435dd1d80cce3b748f30ff23ba52e13ca9c67f5",
    "HMesh/ECM/LU": "852adc1ce6cfc526f8adb42b7f80ee57ad60159a78cb5edc283037d4d913ee2f",
    "LMesh/OCM/LU": "5330d3b7394edab36027b91d81a1a905b0634530aeec587eb9e16463b15a6d16",
    "HMesh/OCM/LU": "fe2671632846c16ab9ab80b4a04c52e1c023b6423aa0c6ba19347e51d3bf8a8f",
    "XBar/OCM/LU": "65283e6cd190a2a4f36ac21ecea41ee1a879a9f71e11f0fdd4ea926125781ae5",
    "LMesh/ECM/Ocean": "573df652fd30d371af9896c0326272bdff836b02accb8736c8366f0d8f098a18",
    "HMesh/ECM/Ocean": "5d50504d142c0eb6acdf24fecd4db23fc9b45e71429deef51b562e31719d7085",
    "LMesh/OCM/Ocean": "09b5f164695ea31857a607ac3a57575160d2ac6e9c3a3d6668a4ad2b2cfcb84b",
    "HMesh/OCM/Ocean": "ca9f05ddec73bc2ca7067f34f03fb7d3d3a714b74a1c9a884a27d6de6a64787e",
    "XBar/OCM/Ocean": "abf0bcc7b3f9ec26d647e73f603bdb42289be58f670c35d282163342c29597b1",
    "LMesh/ECM/Radiosity": "eeabb695356c9dbb1eb52ed53d28094011840925d0038081f2d67425c8e44a08",
    "HMesh/ECM/Radiosity": "8e0b79a258887e2cff430e7b1fc7e14307d1e30c4c8de0cb5f794246882addd0",
    "LMesh/OCM/Radiosity": "2869be5d60fe2053c1c7c18ad8e1b1883eb1991cd4df3cd13fd5414e589163b9",
    "HMesh/OCM/Radiosity": "78506d652cc2cea0d9f0084f4c767885c8912f15f582b32c2fbdf3967dae64f5",
    "XBar/OCM/Radiosity": "fa53107c5d50b74eba41b47a3ce78550922f9ab07b353ef9e959f43e8810499d",
    "LMesh/ECM/Radix": "622728b520c4e7439ff41be3a6a78e1a4d9ce93ccf7c665684d1d00cf503398a",
    "HMesh/ECM/Radix": "daf0a3e5971838bac2210151cacbae59e441f9529735b63e046e1106ecc7e646",
    "LMesh/OCM/Radix": "2bf8e508197cb219e90a54901e6db8bf53752b8b1a2bd807b0eca9c4ce1f9737",
    "HMesh/OCM/Radix": "a3751d96b71961fc6047b51a1aa974d5cf7cb9f39cfe3c8bacd8637fd389fceb",
    "XBar/OCM/Radix": "0c9f1e2a12071214d809961595105a4ab7e0998be92ada9065e54fc26deff363",
    "LMesh/ECM/Raytrace": "d2e6d4c5ccb780f45b27671fe39daa158d14a02a6afa496ce546892a3faec09a",
    "HMesh/ECM/Raytrace": "1b248dab2d129300fb8baf7e51e110f505659831b47d585292b84c65e283e0c2",
    "LMesh/OCM/Raytrace": "0ebe8036a01aef41ee0fa094608c96d5be1fadfd89dd7204f8c6a40224cb2525",
    "HMesh/OCM/Raytrace": "e31a4d76733924d587bbbe71e95d4150f05986683bc8656eeb42831cb151dc1c",
    "XBar/OCM/Raytrace": "5f9e2294b5c1d69d07537952e01fc86064de6275ec0896e3451272bd0fa39486",
    "LMesh/ECM/Volrend": "98b61191f22ddaa8d55cb3797374695b4345ba80357f75e138ca8ffac9138be6",
    "HMesh/ECM/Volrend": "c9e2f5d7cca7e34d11faf26884f8a88cddc1ffeeff222285b193ab30f3433f4e",
    "LMesh/OCM/Volrend": "5c5716a71cd9fdf899c288b0dee63c296856b9576db64443ba121167b2b8be15",
    "HMesh/OCM/Volrend": "518aa65867fa79b601a4ae480fe665930fe5d10e994bf811fabfc80ca4bfb1ea",
    "XBar/OCM/Volrend": "59e47ee7bca08957669db948fcc7d9ce7b15a53ffcee86345e7ad2ae51bf2309",
    "LMesh/ECM/Water-Sp": "d7c8748facf087722a2c020539d515a7b36d65afebe8b6ebbab17403be3b856e",
    "HMesh/ECM/Water-Sp": "9fa4d1cc1f343bbbfecbc13e9ab76279f5f2b451122dc3b4624bfe872373f90e",
    "LMesh/OCM/Water-Sp": "9fa8733e13254041d8170881e2d47ec8eca57dabd77bbc1180c69e7552f016b2",
    "HMesh/OCM/Water-Sp": "93ea62b65a0159782032195a18122e56bfec215f8709e93fdf143cfca436ed5d",
    "XBar/OCM/Water-Sp": "46f5686b43358a963f4a25ebe5f3f3c18c5079d7f70eb37effbb5bd9b71507b0",
}


def _small_quick_matrix() -> EvaluationMatrix:
    """quick_matrix() shrunk to test-suite request counts (same 85 pairs)."""
    matrix = quick_matrix()
    matrix.scale = dataclasses.replace(
        matrix.scale,
        synthetic_requests=600,
        splash_min_requests=400,
        splash_max_requests=700,
    )
    return matrix


def _digests(results) -> dict:
    return {
        f"{result.configuration}/{result.workload}": result_digest(result)
        for result in results
    }


@pytest.fixture(scope="module")
def serial_run():
    runner = ParallelEvaluationRunner(matrix=_small_quick_matrix(), jobs=1)
    runner.run()
    return runner


class TestSerialParallelEquivalence:
    def test_in_process_fallback_is_identical(self, serial_run):
        """jobs=1 uses no pool and reproduces the frozen digests exactly."""
        assert len(serial_run.results) == 85
        assert _digests(serial_run.results) == GOLDEN_DIGESTS
        assert [
            f"{r.configuration}/{r.workload}" for r in serial_run.results
        ] == list(GOLDEN_DIGESTS)

    def test_pool_run_is_identical_for_every_pair(self, serial_run):
        """Worker processes replay shipped traces to bit-identical results."""
        runner = ParallelEvaluationRunner(matrix=_small_quick_matrix(), jobs=2)
        results = runner.run()
        assert len(results) == serial_run.matrix.run_count() == 85
        assert _digests(results) == GOLDEN_DIGESTS
        for serial, parallel in zip(serial_run.results, results):
            # Field-by-field so a mismatch names the offending metric.
            for field in dataclasses.fields(serial):
                assert getattr(serial, field.name) == getattr(
                    parallel, field.name
                ), (serial.workload, serial.configuration, field.name)

    def test_result_ordering_matches_serial_iteration(self, serial_run):
        runner = ParallelEvaluationRunner(matrix=_small_quick_matrix(), jobs=2)
        results = runner.run()
        assert [(r.workload, r.configuration) for r in results] == [
            (r.workload, r.configuration) for r in serial_run.results
        ]

    def test_run_seconds_bookkeeping(self, serial_run):
        runner = ParallelEvaluationRunner(matrix=_small_quick_matrix(), jobs=2)
        runner.run()
        assert set(runner.run_seconds) == set(serial_run.run_seconds)
        assert runner.total_wall_clock_seconds() > 0.0
        assert (
            runner.total_simulated_requests()
            == serial_run.total_simulated_requests()
        )


class TestRunnerApi:
    def test_resolved_jobs_defaults_to_available_cpus(self):
        runner = ParallelEvaluationRunner(matrix=_small_quick_matrix())
        assert runner.resolved_jobs() == available_cpus()

    def test_explicit_jobs_respected(self):
        runner = ParallelEvaluationRunner(matrix=_small_quick_matrix(), jobs=3)
        assert runner.resolved_jobs() == 3

    def test_run_workload_unknown_name_raises(self):
        runner = ParallelEvaluationRunner(matrix=_small_quick_matrix(), jobs=1)
        with pytest.raises(KeyError):
            runner.run_workload("NoSuchWorkload")

    def test_run_workload_covers_every_configuration(self):
        matrix = _small_quick_matrix()
        runner = ParallelEvaluationRunner(matrix=matrix, jobs=1)
        results = runner.run_workload("Uniform")
        assert [r.configuration for r in results] == list(
            matrix.configuration_names
        )
        assert all(r.workload == "Uniform" for r in results)

    def test_shipments_released_after_pool_run(self):
        """The parent frees every shared-memory shipment once results are in."""
        runner = ParallelEvaluationRunner(matrix=_small_quick_matrix(), jobs=2)
        runner.run()
        assert runner._shipments == {}

    def test_progress_reported_in_serial_order(self):
        matrix = _small_quick_matrix()
        lines = []
        runner = ParallelEvaluationRunner(
            matrix=matrix, jobs=2, progress=lines.append
        )
        runner.run()
        assert len(lines) == matrix.run_count()
        assert lines[0].split()[0] == matrix.workload_names()[0]
