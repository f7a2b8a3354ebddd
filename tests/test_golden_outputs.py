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
    # Rows of three pass slices, with a step breakpoint at time 4096.
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
            '8497dd1f2ed91d84dccc1e590e9f569e27f1feda2f3091f4f1ebba265c449fff',
    },
    'experiment-ba-t1': {
        'birth_time.csv':
            'f8552e857530deb259d9f9ef82f0854e437c4b753c972862ab8d905a9e8f969b',
        'degree_distribution.csv':
            '650aa41ad34b7035e9ab2d84de030b8d24242fdc1f1d451b802f2e1a3c861d9d',
        'summary.json':
            '75b1bda0eec9200caa0ccf30c71bb11ee693b0e4620bdc123590e72629e448b6',
    },
    'experiment-ba-t12': {
        'birth_time.csv':
            'c7f2ad05f6e438dc7a6aeb6106bc77adb5edf19857f8da62c43897cc2fc335cb',
        'degree_distribution.csv':
            '1a720ed2a87a38b71c488132a7e8af1f6f80183cd57e4aa27530d1a9934cabf3',
        'summary.json':
            '9ab14400e9acd47974b75e361b08b031157929829ec4d6bf657dea2e23ffae51',
    },
    'experiment-ba-t4097': {
        'birth_time.csv':
            'f559ff8328085863ae6007abd2752e7efa2f8caf4354f9a41a75770f417842f1',
        'degree_distribution.csv':
            'f9f64d67701efc6200c8739cdb9a8933da96e98d806356866024e2ea84e6d330',
        'summary.json':
            '4d2ba6271b1b9213cc909bf2ab3ed8b3d8a6a2431684b64280d222835d42f87e',
    },
    'experiment-const:0-t50': {
        'birth_time.csv':
            '85ed612c53c17527bff5cb8d266811cb9a332b147b59983df3ef1f4f57c4c332',
        'degree_distribution.csv':
            '5eb70e9134fb886deb5eb2725b747e170d0f2fadf08ca5e59dc789d225d2fccd',
        'summary.json':
            'af12b4fd7a8847bad883f6be37a1488cf71995689b08e2c26b50b11107742150',
    },
    'experiment-const:1-t0': {
        'birth_time.csv':
            '2f6e6ff55495cd4738b1ebadc50bc00bc062fa826ba396ddf16dccf93ed4c6b2',
        'degree_distribution.csv':
            'e872dbd0af9acac5b962898cf14412613751951d048bef5bc3a3260e365b3ec3',
        'summary.json':
            '39851bd7ad7e8f9c8f2476d6cf66f58594a14587da235d09549a3aac2ce2c7df',
    },
    'experiment-const:1-t1': {
        'birth_time.csv':
            'f8552e857530deb259d9f9ef82f0854e437c4b753c972862ab8d905a9e8f969b',
        'degree_distribution.csv':
            '650aa41ad34b7035e9ab2d84de030b8d24242fdc1f1d451b802f2e1a3c861d9d',
        'summary.json':
            '84bf99b4779f5a431f263c427841a99c3acf6ee473a54d5c65aa9292e0f12072',
    },
    'experiment-const:1-t12': {
        'birth_time.csv':
            '38bfaa6fb0ec6be5cedf0ded01bc40788f8047a7b26e48a108b8d31ad1b072a6',
        'degree_distribution.csv':
            '3686cd72c5d101ef0868847c385bb95399b961be1c736f978f0fb21ed81c99ca',
        'summary.json':
            '8666bc97d641d47d547a7396446705eb1741faded59744cbf17c43e13b3ede0e',
    },
    'experiment-const:1e-320-t50': {
        'birth_time.csv':
            '85ed612c53c17527bff5cb8d266811cb9a332b147b59983df3ef1f4f57c4c332',
        'degree_distribution.csv':
            '5eb70e9134fb886deb5eb2725b747e170d0f2fadf08ca5e59dc789d225d2fccd',
        'summary.json':
            'b927963b2c1f56f8eb4d24432ab3bf167166034bba0bf8c57da42607026cbc69',
    },
    'experiment-ln-t0': {
        'birth_time.csv':
            '2f6e6ff55495cd4738b1ebadc50bc00bc062fa826ba396ddf16dccf93ed4c6b2',
        'degree_distribution.csv':
            'e872dbd0af9acac5b962898cf14412613751951d048bef5bc3a3260e365b3ec3',
        'summary.json':
            '34abc39b5821ef633d684e298f336c46a4848440c6e07d5e2d80fb4490b91ea7',
    },
    'experiment-ln-t1': {
        'birth_time.csv':
            'f8552e857530deb259d9f9ef82f0854e437c4b753c972862ab8d905a9e8f969b',
        'degree_distribution.csv':
            '650aa41ad34b7035e9ab2d84de030b8d24242fdc1f1d451b802f2e1a3c861d9d',
        'summary.json':
            '245219f6476d25fc0feb59e4f2464354959d9f3fc1a16966fd79bc73cc71d3b1',
    },
    'experiment-ln-t12': {
        'birth_time.csv':
            '5e75ac1592f43426fa463766f297e203659d315f1cf2e5525eeb893aa6583b38',
        'degree_distribution.csv':
            '42ce6e71b883b9c5be594d919658e87b964d07ea6cea97732c956bf1ec18514e',
        'summary.json':
            '2338c74bf9fdf8abf5ca473f502c47ea1610e779fb15e0457c5bf34764d7cbf3',
    },
    'experiment-ln-t300': {
        'birth_time.csv':
            'c87873c54eada98b2039c3eac5464654e1ba833afd134e6a02a9bd3f869c518c',
        'degree_distribution.csv':
            'f8595d5e40dc47c2df74ca5e12ce144f296c4439d92d3f1a1cc24c15f6bd5e03',
        'summary.json':
            '24af0fd02d6b01a620c1afabfd7977478e9f82814d353a67997b728af56cda3a',
    },
    'experiment-paper-f-t0': {
        'birth_time.csv':
            '2f6e6ff55495cd4738b1ebadc50bc00bc062fa826ba396ddf16dccf93ed4c6b2',
        'degree_distribution.csv':
            'e872dbd0af9acac5b962898cf14412613751951d048bef5bc3a3260e365b3ec3',
        'summary.json':
            'cae52c126d6cd7ea05b918909e67d4b611d722200341df867a1aab19724bd6fb',
    },
    'experiment-paper-f-t1': {
        'birth_time.csv':
            'f8552e857530deb259d9f9ef82f0854e437c4b753c972862ab8d905a9e8f969b',
        'degree_distribution.csv':
            '650aa41ad34b7035e9ab2d84de030b8d24242fdc1f1d451b802f2e1a3c861d9d',
        'summary.json':
            'fcae16d38b08441638ead9da866a55a30b91f0e2d6727286838a0fe1cd74cfe9',
    },
    'experiment-paper-f-t12': {
        'birth_time.csv':
            '38bfaa6fb0ec6be5cedf0ded01bc40788f8047a7b26e48a108b8d31ad1b072a6',
        'degree_distribution.csv':
            '3686cd72c5d101ef0868847c385bb95399b961be1c736f978f0fb21ed81c99ca',
        'summary.json':
            '13c37a5de1464033582f8a1e21ee1d602d78a6c1e84b9fcb8db2d1721e28debb',
    },
    'experiment-paper-g-t0': {
        'birth_time.csv':
            '2f6e6ff55495cd4738b1ebadc50bc00bc062fa826ba396ddf16dccf93ed4c6b2',
        'degree_distribution.csv':
            'e872dbd0af9acac5b962898cf14412613751951d048bef5bc3a3260e365b3ec3',
        'summary.json':
            'ed7d5637be99a314fc4faecde8c7079337b33c5934273e7a85f7501a18e870b4',
    },
    'experiment-paper-g-t1': {
        'birth_time.csv':
            'f8552e857530deb259d9f9ef82f0854e437c4b753c972862ab8d905a9e8f969b',
        'degree_distribution.csv':
            '650aa41ad34b7035e9ab2d84de030b8d24242fdc1f1d451b802f2e1a3c861d9d',
        'summary.json':
            'c49c44496d0a7799044fa2ec9220989fa28e41832fb9c08bebfbe8aeef24010a',
    },
    'experiment-paper-g-t12': {
        'birth_time.csv':
            '26b5b71ec21ab1ade574ea9ff867aa2ba4c623173e55d2a42fb0c5210aeb97ce',
        'degree_distribution.csv':
            '50e179ec7250a95837143047a4471e7eb24c02c945d3e4085b44ad4523394034',
        'summary.json':
            'a49bf477b31fab9fe81bb00f19bc3f04bbe685a5d0c80e76a7ad7988d8e638ba',
    },
    'experiment-paper-g-t4097': {
        'birth_time.csv':
            '9ecd8ea2f337914a0456b2c33fc3e8b543ba3bf78a51f9751dbdafdb704b7d58',
        'degree_distribution.csv':
            'db50a15889640749adb0f619b9ba3427216209a2af563186b1c1a9faaa7ab55b',
        'summary.json':
            '9a94d697a6f99659d4ee80333a89b181ae6f1e21ecae15ccc7492b1e34803b4a',
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
            'fac53af0a753d7f12c222e4fc62af855d9f8b5ecffccbf66e970ee9f9d8e7e89',
        'edges.txt':
            'c031f052c21046f9f2ae442e0ecec73bd4ec13949dce6ef194173a5b8e2bb5a5',
    },
    'generate-t4097-ln': {
        'degrees.csv':
            '18f55e92ae12567aca03e456822e4c2cc9c846d97ed1ce5d1a8cea812b50f652',
        'edges.txt':
            '1d64deef76348fff6a9afbbcee45d2c3d313e30ef62937a5fbb6d5c6d73bde68',
    },
    'generate-t4097-paper-f': {
        'degrees.csv':
            '39429fa95e6608e421f42fe434b32b07ab28a29b2d60bc148edb76f7d39a9b03',
        'edges.txt':
            'cd0534c8a1773f1bfac16e281c6663e06c27a6109d215b42645e377a7e7442ba',
    },
    'generate-t50-const:0': {
        'degrees.csv':
            'c4d3d38e0423d7af05fc96772650d6f0ee6ad9079e4475e2a3be352a7aba7202',
        'edges.txt':
            'aa6140368f7d21069e9da4d578c59aac17254c0e17edb5271a2f98c8654066af',
    },
    'generate-t50-const:1e-320': {
        'degrees.csv':
            'c4d3d38e0423d7af05fc96772650d6f0ee6ad9079e4475e2a3be352a7aba7202',
        'edges.txt':
            'aa6140368f7d21069e9da4d578c59aac17254c0e17edb5271a2f98c8654066af',
    },
    'generate-t7-const:0.5': {
        'degrees.csv':
            '1c0a368738365c4bf33ae4cf409b69df2040529c94922be29264d43ccebe52bc',
        'edges.txt':
            'bb5cbb0d7d9351e210efb0232354d6aedb7ac876a1e7f801ca5edf02c8ece122',
    },
    'generate-t7-const:1': {
        'degrees.csv':
            '496448f1ddba44139c20ac7976b64ccbadaea15ce5e092291fb745942e13e5de',
        'edges.txt':
            'ca4183f9fce3f7e2c14907fb2996ab5249c546b767851a86ece02ca639885e93',
    },
    'generate-t7-ln': {
        'degrees.csv':
            '95689d6c4ca910c8d5df88df5d277a68b6030b9de885340a7368d3c59f8782da',
        'edges.txt':
            'b95877112a9388f93a040bd207c79a25b34470ff54792a26676d607c7f687780',
    },
    'generate-t7-paper-f': {
        'degrees.csv':
            '496448f1ddba44139c20ac7976b64ccbadaea15ce5e092291fb745942e13e5de',
        'edges.txt':
            'ca4183f9fce3f7e2c14907fb2996ab5249c546b767851a86ece02ca639885e93',
    },
    'generate-t7-paper-g': {
        'degrees.csv':
            '7851137938e869e8188c257b3c0ba050bc87adecca228d8f1854190582d4474a',
        'edges.txt':
            '53ee486b25dbd6ff5eb1a413717a9f0038cc57dd0514a4270cb325feac21c29e',
    },
    'generate-t8193-const:0.7': {
        'degrees.csv':
            '161ec17f6ea2b3fbd5fb940ee88148c455e8ff3106e5c310b70dfa25e04ea92c',
        'edges.txt':
            '07d203034bcadfa2a3b7aaf4e0d98d6244542738d6c1412db7e6ab69880cde11',
    },
    'generate-t8193-step:4096=1,8000=100,inf=0.5': {
        'degrees.csv':
            'b7303a6c9064469535476d109ceb55afc9d2fe9a2eb3f664b3596188e18a5be0',
        'edges.txt':
            '5d36e718a3d9b957c855ad382e16316b058251d194547f286424d52d086fa0de',
    },
    'repro-birthtime-all': {
        'birth_time_ba.csv':
            'e257039f7cdb9cea613fa4bddc4b27d0731d44b14509f34bb17189e3fcfbb2f9',
        'birth_time_delta1.csv':
            '9a2b974e2c7c317c9c68dfbf6c7c5fac10b30c7cfc9768f96e065dd530b783f0',
        'birth_time_f.csv':
            '51358e0cdea022da03da5299ba0769f984308a66a374151cc0f0b7cc5a2a7da3',
        'birth_time_g.csv':
            '7717038b65c60f7b81ede77c066c756b316d50c858f3f73560676364220f925f',
        'birth_time_ln.csv':
            '114375d18b6e23863896a6f88567cb46eb42af9db3313d40971521d2ac2a730b',
        'summary.json':
            '14617359e89c9cd2d48ae5ad46f5ee599592f306424f2c5341d3cd9b54ac5d59',
    },
    'repro-degree-f': {
        'degree_distribution_ba.csv':
            '5eb94c661419e714d1afbf443deeaf6f5ee9162d6b725ae306885f67a3890442',
        'degree_distribution_polya.csv':
            '0e6848abe6277ff44e66a0543c020054899ec376fcedc414d19ba5befb4ac3c9',
        'summary.json':
            'b0e8e9a870e0acae4a07ad545e3d9b52f1c40ceaf9bcb3a1ee445ec4b615857e',
    },
    'repro-degree-g': {
        'degree_distribution_ba.csv':
            '5eb94c661419e714d1afbf443deeaf6f5ee9162d6b725ae306885f67a3890442',
        'degree_distribution_polya.csv':
            '2eba59ee8ac523da0a8974ee8072e92fa80c4528aee8ccf6de26b7cfc27d9630',
        'summary.json':
            '4861a075b0b6303e04dcfadf210093712c5a6abe974ca7b92199870b9569c3bf',
    },
    'repro-degree-ln': {
        'degree_distribution_ba.csv':
            '5eb94c661419e714d1afbf443deeaf6f5ee9162d6b725ae306885f67a3890442',
        'degree_distribution_polya.csv':
            '755bc06ec0e23337fef3c01f4d5b8c8a564b6c31318483f1be8f94eab754051e',
        'summary.json':
            'e0e1ef5058786fa1384e45ed3f57576506ac6ee8400b626e09eb145efee98d22',
    },
    'repro-fig3': {
        'empirical_pmf.csv':
            '2aaac978f68b2f749c229ba0a5bca2d7c2ca3da3d575d9e61ac7a76bb25ac626',
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
