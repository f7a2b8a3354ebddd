"""Golden digests of every file a fixed battery of CLI runs writes.

The other CLI tests check that reruns of one build agree; these pin the
bytes themselves, so a change in any output format, float rendering or
seeding fails here even when each rerun still agrees with itself.  Each case
runs in its own directory, and every file it leaves there is hashed (an
``exact`` run without ``--out`` is hashed as ``stdout``).

The digests change only with a deliberate change of an output format or of
the seed contract; record the new ones with ``print_digests`` below.
"""

import hashlib
from pathlib import Path

import pytest

from conftest import run_cli

REPLAY_DRAWS = "1 1 2 2 3 1 5 8\n"

CASES = {
    "generate-t0": ["generate", "--t", "0"],
    "generate-t1-ln": ["generate", "--t", "1", "--schedule", "ln", "--seed", "3"],
    **{f"generate-t7-{spec}": ["generate", "--t", "7", "--schedule", spec, "--seed", "11"]
       for spec in ("const:1", "const:0.5", "ln", "paper-f", "paper-g")},
    "generate-t3000-ln": ["generate", "--t", "3000", "--schedule", "ln", "--seed", "2"],
    # Rows one step longer than a pass (seeding.PASS = 4096): the time-chunk path.
    **{f"generate-t4097-{spec}": ["generate", "--t", "4097", "--schedule", spec, "--seed", "11"]
       for spec in ("ln", "paper-f")},
    # Rows crossing two pass edges, one on a step breakpoint at time 4096.
    **{f"generate-t8193-{spec}": ["generate", "--t", "8193", "--schedule", spec, "--seed", "11"]
       for spec in ("step:4096=1,8000=100,inf=0.5", "const:0.7")},
    "experiment-paper-g-t4097": ["experiment", "--model", "polya", "--schedule", "paper-g",
                                 "--t", "4097", "--replicates", "3", "--seed", "9"],
    "experiment-ba-t4097": ["experiment", "--model", "ba", "--t", "4097", "--replicates", "3",
                            "--seed", "9"],
    "generate-replay-const": ["generate", "--replay", "{replay}"],
    "generate-replay-ln": ["generate", "--replay", "{replay}", "--schedule", "ln"],
    **{f"exact-{method}": ["exact", "--j", "2", "--t", "8", "--method", method]
       for method in ("general", "dp", "oracle")},
    **{f"exact-{method}-k3": ["exact", "--j", "2", "--t", "8", "--method", method, "--k", "3"]
       for method in ("general", "dp", "oracle")},
    "exact-general-paper-g": ["exact", "--j", "3", "--t", "14", "--schedule", "paper-g"],
    "exact-dp-paper-f": ["exact", "--j", "2501", "--t", "2520", "--schedule", "paper-f",
                         "--method", "dp"],
    "exact-dp-step": ["exact", "--j", "8", "--t", "20", "--schedule", "step:3=1,7=4,inf=2.5",
                      "--method", "dp"],
    "exact-oracle-ln-k0": ["exact", "--j", "1", "--t", "6", "--schedule", "ln",
                           "--method", "oracle", "--k", "0"],
    **{f"experiment-{spec}-t{t}": ["experiment", "--model", "polya", "--schedule", spec,
                                   "--t", str(t), "--replicates", "40", "--seed", "9"]
       for spec in ("const:1", "ln", "paper-f", "paper-g") for t in (0, 1, 12)},
    **{f"experiment-ba-t{t}": ["experiment", "--model", "ba", "--t", str(t),
                               "--replicates", "40", "--seed", "9"]
       for t in (0, 1, 12)},
    **{f"experiment-{spec}-t50": ["experiment", "--model", "polya", "--schedule", spec,
                                  "--t", "50", "--replicates", "40", "--seed", "9"]
       for spec in ("const:0", "const:1e-320")},
    **{f"generate-t50-{spec}": ["generate", "--t", "50", "--schedule", spec, "--seed", "11"]
       for spec in ("const:0", "const:1e-320")},
    "experiment-ln-t300": ["experiment", "--model", "polya", "--schedule", "ln", "--t", "300",
                           "--replicates", "20", "--seed", "4"],
    "repro-fig3": ["repro", "fig3", "--replicates", "200"],
    **{f"repro-{figure}": ["repro", figure, "--t", "40", "--replicates", "6"]
       for figure in ("degree-ln", "degree-f", "degree-g", "birthtime-all")},
}

GOLDEN = {
    'exact-dp': {
        'stdout':
            'cb28a1ad29d96a5fddba6aeaf5f78902bdbb31d963a92320be787acb52bb12c5',
    },
    'exact-dp-k3': {
        'stdout':
            'f19f7a792811a83434d4a52dfc2f8959bc8b01a707702a55d862d8b8655a27c6',
    },
    'exact-dp-paper-f': {
        'stdout':
            'ab964f7dbfa3d73cd441ec1b23093744c79b3738dbe2162022625e37cb738e10',
    },
    'exact-dp-step': {
        'stdout':
            '3783ba35bcb0de81dc972443301765ca379e972371d3ae61e674521c4c10bef6',
    },
    'exact-general': {
        'stdout':
            'e7387211d63c9d1ea97501b9b67b1b3457dc2d12606634dc4120c83be219e616',
    },
    'exact-general-k3': {
        'stdout':
            'dbbc3fb63b26f992789c80b6508d553b2255cf3c04fd4f1045ad5a9ca9bf0a7b',
    },
    'exact-general-paper-g': {
        'stdout':
            '279d99f69f4e0828724d3fac2f6eb98deb357ca643aa94f113d099bafe6f18a3',
    },
    'exact-oracle': {
        'stdout':
            'f311078912f521b76762142607f446fed43ec7449b8e3b75ddf9ac419b9baff9',
    },
    'exact-oracle-k3': {
        'stdout':
            '381e67afc1c6a242b5e6c58900e51f175c0f748f17a830cfbd4dd2bdbc2dcb86',
    },
    'exact-oracle-ln-k0': {
        'stdout':
            '3f3bb72acb0c3df29502838861684ff7bac26c03a164dcd89a55d6cb0c03463c',
    },
    'experiment-ba-t0': {
        'birth_time.csv':
            '2f6e6ff55495cd4738b1ebadc50bc00bc062fa826ba396ddf16dccf93ed4c6b2',
        'degree_distribution.csv':
            'e872dbd0af9acac5b962898cf14412613751951d048bef5bc3a3260e365b3ec3',
        'summary.json':
            '63787ed44540a045813ec433d6d5ce0f564cd6cd53995208f0fa27bc91277d66',
    },
    'experiment-ba-t1': {
        'birth_time.csv':
            'f8552e857530deb259d9f9ef82f0854e437c4b753c972862ab8d905a9e8f969b',
        'degree_distribution.csv':
            '650aa41ad34b7035e9ab2d84de030b8d24242fdc1f1d451b802f2e1a3c861d9d',
        'summary.json':
            '7d2fa56f2aad0cfcdd2db8d9a12137570278346bf8cbcb7c8f726eae188ca17c',
    },
    'experiment-ba-t12': {
        'birth_time.csv':
            'df9d56c1c2834f21832e5facf102c294f52d21a98435ca4410da0a99b6279406',
        'degree_distribution.csv':
            'ad95a9dce3cf3d39eb91de6592d75ea94e559343b7eb924cced6ae762c4ccff5',
        'summary.json':
            '74ba9281b2c9bcfda278a0a19e07581bb9a3b06d538593abe1da0ab82be2c4d1',
    },
    'experiment-ba-t4097': {
        'birth_time.csv':
            '4b4df82adf4454bcc0e56abde7835ba913ce7781ce163c92a283631fe941ea68',
        'degree_distribution.csv':
            '0aba713649a0e06f00b65ba69474f6a03d7a926af4d4f5ec623ae479b143d1c8',
        'summary.json':
            '59d5f0f187628e4b0488e1b75b6fb6786d1ac16b81812f383d18a7a65e61347e',
    },
    'experiment-const:0-t50': {
        'birth_time.csv':
            '297e04e36b22aee3d541724f1e2e927bb832f64d06994cf8b0ce61eba3327847',
        'degree_distribution.csv':
            '118810346e604949926c719ab4213e26553e8bf1acaca657b3d3d88913fc78e7',
        'summary.json':
            '3717d26fce79af786be989b19840cc0c2ac3579d901a1e88c66d356b6b0e3789',
    },
    'experiment-const:1-t0': {
        'birth_time.csv':
            '2f6e6ff55495cd4738b1ebadc50bc00bc062fa826ba396ddf16dccf93ed4c6b2',
        'degree_distribution.csv':
            'e872dbd0af9acac5b962898cf14412613751951d048bef5bc3a3260e365b3ec3',
        'summary.json':
            'd81f3b143da3793c64edf4c9c432fbc38430deaf1ce9cf6985279ff61d85dff5',
    },
    'experiment-const:1-t1': {
        'birth_time.csv':
            'f8552e857530deb259d9f9ef82f0854e437c4b753c972862ab8d905a9e8f969b',
        'degree_distribution.csv':
            '650aa41ad34b7035e9ab2d84de030b8d24242fdc1f1d451b802f2e1a3c861d9d',
        'summary.json':
            '0558f4c3a426ccc87d7830daf9add2183adb4baf11a30d96062c7b37e7a77bf8',
    },
    'experiment-const:1-t12': {
        'birth_time.csv':
            'c889a5ead756b77d7472efe148d4237e7f373ecb32bbe714a0eaa3199d400f7c',
        'degree_distribution.csv':
            'e6f01eb62eeffc4a20f1c43fe21f78fa11522173c9053014cdd6c765a8c2fe52',
        'summary.json':
            '21536aafac9bab94545e5a3ec963d3ecf992fab9b9e4c27cc8fc1342a39b6cba',
    },
    'experiment-const:1e-320-t50': {
        'birth_time.csv':
            '297e04e36b22aee3d541724f1e2e927bb832f64d06994cf8b0ce61eba3327847',
        'degree_distribution.csv':
            '118810346e604949926c719ab4213e26553e8bf1acaca657b3d3d88913fc78e7',
        'summary.json':
            '76673678f009e216150a96163ab3bcbc93679c43bbb529918c57295f83227cdd',
    },
    'experiment-ln-t0': {
        'birth_time.csv':
            '2f6e6ff55495cd4738b1ebadc50bc00bc062fa826ba396ddf16dccf93ed4c6b2',
        'degree_distribution.csv':
            'e872dbd0af9acac5b962898cf14412613751951d048bef5bc3a3260e365b3ec3',
        'summary.json':
            'b7d169c93f10c65c233f79dae74577158c13c91dcce2a76720319c976e45f84a',
    },
    'experiment-ln-t1': {
        'birth_time.csv':
            'f8552e857530deb259d9f9ef82f0854e437c4b753c972862ab8d905a9e8f969b',
        'degree_distribution.csv':
            '650aa41ad34b7035e9ab2d84de030b8d24242fdc1f1d451b802f2e1a3c861d9d',
        'summary.json':
            '5ec892208f0c6057a7d457de77f0c511841c81abe9738996ada179fdc0ce8d2d',
    },
    'experiment-ln-t12': {
        'birth_time.csv':
            'fecb9b749185b2af42ed1da407bd0014137d70d9bd72d29e9abcb252351db2bc',
        'degree_distribution.csv':
            '3fa76bf3b33d4197ee5161f635fa65c2dba6fa6b4e368443ab490f65c9f9433b',
        'summary.json':
            'ed3de37bc2c8c12693c8e6c1fde7a975a7c88a6943f2370c3815133ddd8884c8',
    },
    'experiment-ln-t300': {
        'birth_time.csv':
            'f59123b3ee8660616a48c59ca06fb229332b90023ad6cb0ae21a00eca768c845',
        'degree_distribution.csv':
            '6eb61af4e233890285d6dc0cdfef54f5cc560e75924a3fe2d78dcb2a2558b513',
        'summary.json':
            '428b1883a18aa28b520207b110322e20083115edf5dd9156971f5b4a8d2ad7d1',
    },
    'experiment-paper-f-t0': {
        'birth_time.csv':
            '2f6e6ff55495cd4738b1ebadc50bc00bc062fa826ba396ddf16dccf93ed4c6b2',
        'degree_distribution.csv':
            'e872dbd0af9acac5b962898cf14412613751951d048bef5bc3a3260e365b3ec3',
        'summary.json':
            '3fe2747a0a47ca4f0f1792f94d108dbb4ce3fc919edb6d6045f3accbb0c0292f',
    },
    'experiment-paper-f-t1': {
        'birth_time.csv':
            'f8552e857530deb259d9f9ef82f0854e437c4b753c972862ab8d905a9e8f969b',
        'degree_distribution.csv':
            '650aa41ad34b7035e9ab2d84de030b8d24242fdc1f1d451b802f2e1a3c861d9d',
        'summary.json':
            '13b98dbb857dbf5427730fcb5516ae87cbec641be1b3b06a5c5f5aa03b245598',
    },
    'experiment-paper-f-t12': {
        'birth_time.csv':
            'c889a5ead756b77d7472efe148d4237e7f373ecb32bbe714a0eaa3199d400f7c',
        'degree_distribution.csv':
            'e6f01eb62eeffc4a20f1c43fe21f78fa11522173c9053014cdd6c765a8c2fe52',
        'summary.json':
            '6ddb83f82903e34af5fa6a0b7da39ea9c25b132f5a27ed99fb9f1a0314d9d82b',
    },
    'experiment-paper-g-t0': {
        'birth_time.csv':
            '2f6e6ff55495cd4738b1ebadc50bc00bc062fa826ba396ddf16dccf93ed4c6b2',
        'degree_distribution.csv':
            'e872dbd0af9acac5b962898cf14412613751951d048bef5bc3a3260e365b3ec3',
        'summary.json':
            'fb410e364b709d02c5746d9bfd8ffce4604dcde5e8b4e4faea1819710bf5dfec',
    },
    'experiment-paper-g-t1': {
        'birth_time.csv':
            'f8552e857530deb259d9f9ef82f0854e437c4b753c972862ab8d905a9e8f969b',
        'degree_distribution.csv':
            '650aa41ad34b7035e9ab2d84de030b8d24242fdc1f1d451b802f2e1a3c861d9d',
        'summary.json':
            '1156729784dfd7872dc82237c7615158eea83b6ad2de5122a9fb676a3ff2337a',
    },
    'experiment-paper-g-t12': {
        'birth_time.csv':
            '5b9b885f52b2f85cf3bed9f07c09160ef442b57ab9c4e5d819cf5cfdf5f6f368',
        'degree_distribution.csv':
            '481288884a026388e87671cf8e8665cf3792b536e80e2a2abc594c0abf81f164',
        'summary.json':
            'f0e921f490af420ce58e3326013b6650a05221960ed8b09ccee1999435e5baf4',
    },
    'experiment-paper-g-t4097': {
        'birth_time.csv':
            'e6d43b9f10527b8dce406f1c71482ebfa58941e08675fd3cc47232728c48c9e7',
        'degree_distribution.csv':
            '632265b98ca8d722b4b9682633b5fc9fb914796823d28fb4fb33e616cb9ac80c',
        'summary.json':
            'fcd15055df63f1dbf3ed8a00c507a3a9c67a8595b9f73086262627a8e33b93a8',
    },
    'generate-replay-const': {
        'degrees.csv':
            'f5efe08c95dbf36f58d0546a34e593241ede4b6836928dd9c1f3bc4d5f0be2fb',
        'edges.txt':
            'a799f080f019c85f027db57785388dd5c52ac7b2ce432f8aa6100f16f766db49',
    },
    'generate-replay-ln': {
        'degrees.csv':
            'f5efe08c95dbf36f58d0546a34e593241ede4b6836928dd9c1f3bc4d5f0be2fb',
        'edges.txt':
            'a799f080f019c85f027db57785388dd5c52ac7b2ce432f8aa6100f16f766db49',
    },
    'generate-t0': {
        'degrees.csv':
            '1e509ac62141661db9728a87b80f7501c4b050135ace04e990dccbc14479ca3d',
        'edges.txt':
            '3f11ad6bbc7ecca0b2416b713dee77f1a635c00aaeaa946e14cde1c2bfae56d5',
    },
    'generate-t1-ln': {
        'degrees.csv':
            '4d598d9921b46ed2025f4d523943a94b1b590abcbc5f1013bbdbe4f4ac3d8d27',
        'edges.txt':
            '45e81aedb0e59022bf47117fc45f980574552a0600aa3a09e36daddcf35b0342',
    },
    'generate-t3000-ln': {
        'degrees.csv':
            '4e555cc6f7c07a6945abbf602eb7ff7d7bc4cdcc0fcb830b788fd29e3bd6a0e4',
        'edges.txt':
            '6f30fc6589e1f1b57c35e134736396415556c37091a6d29eceb0947b68b1f83e',
    },
    'generate-t4097-ln': {
        'degrees.csv':
            '84db2c2ae81a8efb38275bb75cd9e7143869215060b59aa1b5201e4d4caeac6d',
        'edges.txt':
            '648bbe495962ef8f68aa96297d1cf31ca3fd5745db17043caff6bed26736da72',
    },
    'generate-t4097-paper-f': {
        'degrees.csv':
            '424afd9d4d9b3021a602c477fc010be70956afc2e2ae950e493c5bea39193b82',
        'edges.txt':
            'e086b7bcf14c4573d6ac772ba98ff6d53021c8fca9a71e7e76236bee47e37b71',
    },
    'generate-t50-const:0': {
        'degrees.csv':
            'bc81a7bf1629f963fdc3655c36c62be3079b60ca9e8c7f4d9e299d84568a4539',
        'edges.txt':
            '47bb60b9000e7e694b6be9c50c63061646ca70fd6dee59fb51c7e4512cb0c0cf',
    },
    'generate-t50-const:1e-320': {
        'degrees.csv':
            'bc81a7bf1629f963fdc3655c36c62be3079b60ca9e8c7f4d9e299d84568a4539',
        'edges.txt':
            '47bb60b9000e7e694b6be9c50c63061646ca70fd6dee59fb51c7e4512cb0c0cf',
    },
    'generate-t7-const:0.5': {
        'degrees.csv':
            'ef37c05d9769ca2c65098f8a41345b65decd1f7c6065a117bb9f8a832ede954b',
        'edges.txt':
            '34e90382c20a0bd0f163c1342f8f4217d37dec7b99614bf93b9f986173ce009b',
    },
    'generate-t7-const:1': {
        'degrees.csv':
            '73a9970805865b0bbe7436d86b98a497e4bedde14f44c0af5e466e523be17a83',
        'edges.txt':
            'bbd0ebe38caff9389e3a0bba83ecb32424e739efa59af79bd4367161a6f5251c',
    },
    'generate-t7-ln': {
        'degrees.csv':
            'ef37c05d9769ca2c65098f8a41345b65decd1f7c6065a117bb9f8a832ede954b',
        'edges.txt':
            '35fc6a50e77a5d6d1af033bd8a8095a1b754228c766ccd6024f245c1f8835422',
    },
    'generate-t7-paper-f': {
        'degrees.csv':
            '73a9970805865b0bbe7436d86b98a497e4bedde14f44c0af5e466e523be17a83',
        'edges.txt':
            'bbd0ebe38caff9389e3a0bba83ecb32424e739efa59af79bd4367161a6f5251c',
    },
    'generate-t7-paper-g': {
        'degrees.csv':
            '2b55de1ce582a4f31d420832a0d147e66d22b1357b6dae621dd753ee63655e52',
        'edges.txt':
            '61222d0303fe489f2f364263807f8d8bca536c245791f7e42303f5d0c7ebb59b',
    },
    'generate-t8193-const:0.7': {
        'degrees.csv':
            '4e20a24341e13d80a3b7c33e120aeebf2584e288900a7a6518415299f0c08cd4',
        'edges.txt':
            'fa1a6b49109167db2356ae424ee0688720d985d488bac4b65dffdb6670c5bc0e',
    },
    'generate-t8193-step:4096=1,8000=100,inf=0.5': {
        'degrees.csv':
            'cae7ef3fde9cbd06bde37911a0064d443232540be8f95e44c0403b37ccc3e9b1',
        'edges.txt':
            '52ab1c8aaab9c4d145332fec0012358dac5851f0b7d1ff8feeb1c51b534fe49f',
    },
    'repro-birthtime-all': {
        'birth_time_ba.csv':
            'e159cd0545318b02ffb71ee260e5ae2aeeb421e952adce2b31925ef7a4c2a1e4',
        'birth_time_delta1.csv':
            '72483e4116a344acc4a767b41b31bc220e37996e65b9a4cabcdf922dad9edbdb',
        'birth_time_f.csv':
            '4349aabdfa9677418c7d40171db05a10c24602b13a8c4819c3db88d2046a8433',
        'birth_time_g.csv':
            'aaf268efcb7f56a86e078d3d70fa4c79603b8484975559da47efce57e468fea0',
        'birth_time_ln.csv':
            'd77baec5fe8c79ce279ab82b22fc7973ebecc2f1075256d2d319b04f74a8faa5',
        'summary.json':
            '14617359e89c9cd2d48ae5ad46f5ee599592f306424f2c5341d3cd9b54ac5d59',
    },
    'repro-degree-f': {
        'degree_distribution_ba.csv':
            '357703ca3ce0f71a1c5a9b3d2d814a370cee75c535318d034c84d89970e5487c',
        'degree_distribution_polya.csv':
            '8458f5aa787ebfb3a7b6fcaa4797ee8578269882ae248e72d3c5edd6951529ab',
        'summary.json':
            'b0e8e9a870e0acae4a07ad545e3d9b52f1c40ceaf9bcb3a1ee445ec4b615857e',
    },
    'repro-degree-g': {
        'degree_distribution_ba.csv':
            '357703ca3ce0f71a1c5a9b3d2d814a370cee75c535318d034c84d89970e5487c',
        'degree_distribution_polya.csv':
            '2cb7fe3f9640682413074a61cd903ecae9dfdfdb02e6574ed7b5e07179377401',
        'summary.json':
            '4861a075b0b6303e04dcfadf210093712c5a6abe974ca7b92199870b9569c3bf',
    },
    'repro-degree-ln': {
        'degree_distribution_ba.csv':
            '357703ca3ce0f71a1c5a9b3d2d814a370cee75c535318d034c84d89970e5487c',
        'degree_distribution_polya.csv':
            'ffaf6472b97bf9dc137291c3cbcad6ade08e114c0db0b97bb02ca8f72fa440b2',
        'summary.json':
            'e0e1ef5058786fa1384e45ed3f57576506ac6ee8400b626e09eb145efee98d22',
    },
    'repro-fig3': {
        'empirical_pmf.csv':
            'bf37a729c399e934c0c94c05e366d72ac3106ec0bfea4bb20a532b8af8dbaab7',
        'exact_pmf.csv':
            '40e5786768331493d1748d94114ac989f243633e9d706874b80f5d1faf06d444',
        'summary.json':
            '998889cd80ed98de83276e69ffeb4a830ac61d566e45aa8af88167ffdf479077',
    },
}


def _run(case: str, workdir: Path) -> dict[str, str]:
    """Run one case in ``workdir``; returns the sha256 of each file it wrote."""
    replay = workdir / "draws.txt"
    replay.write_text(REPLAY_DRAWS)
    out = workdir / "out"
    args = [arg.replace("{replay}", str(replay)) for arg in CASES[case]]
    if args[0] != "exact":
        args += ["--out", str(out)]
    result = run_cli(*args)
    assert result.exit_code == 0, result.stderr
    files = {"stdout": result.stdout.encode()} if args[0] == "exact" else {
        str(p.relative_to(out)): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()
    }
    return {name: hashlib.sha256(data).hexdigest() for name, data in files.items()}


@pytest.mark.parametrize("case", sorted(CASES))
def test_files_match_golden_digests(case, tmp_path):
    assert _run(case, tmp_path) == GOLDEN[case]


def test_every_case_has_digests():
    assert sorted(GOLDEN) == sorted(CASES)


def print_digests(workdir: Path) -> None:
    """Print a fresh ``GOLDEN`` table for this build (run from a scratch directory)."""
    for case in sorted(CASES):
        case_dir = workdir / case
        case_dir.mkdir(parents=True)
        print(f"    {case!r}: {_run(case, case_dir)!r},")
