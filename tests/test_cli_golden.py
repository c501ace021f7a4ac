"""Golden bytes: exit code, stdout and stderr of fixed command lines stay exactly as frozen.

Each command runs through ``swfold.cli.main`` in a scratch directory that
holds copies of the demo specs and a few hand-written input files, so every
path in the output is relative and the bytes do not depend on where the
repository lives.  A digest covers the exit code and both streams; a
failure names the command line whose bytes changed.
"""

import hashlib
import json
import pathlib
import shutil

import pytest

from swfold.cli import ENV_KNOT_TABLE, main

DEMOS = pathlib.Path(__file__).resolve().parent.parent / "demos"
SPECS = ("demos/trefoil.json", "demos/fig8-pair.json", "demos/52-pair.json")
FLAGS = ((), ("--json",), ("--quiet",))

INPUT_FILES = {
    "my-knots.json": [
        {"name": "granny", "fibered": True, "alexander": "t^2 - 2*t + 3 - 2*t^-1 + t^-2"},
        {"name": "twist3", "fibered": False, "seifert": [[1, 1], [0, 3]]},
    ],
    "bad-seifert.json": {"name": "x", "fibered": True, "seifert": [[1, 0], [0, 1]]},
    "unknown-knot.json": {"base": "t3", "sums": [{"knot": "9_99", "meridian": "m1"}]},
    "bad-base.json": {"base": "t4"},
    "clash.json": {
        "base": "t3",
        "knots": [{"name": "3_1", "fibered": False, "alexander": "2*t - 3 + 2*t^-1"}],
        "sums": [{"knot": "3_1", "meridian": "m1"}],
    },
    "genus0.json": {"base": {"surface_x_s1": 0}},
}


def _command_lines() -> list[tuple[str, ...]]:
    lines = [
        # README "Command line"
        ("knot", "list"),
        ("knot", "show", "5_2"),
        ("knot", "register", "my-knots.json"),
        ("sw3", "demos/fig8-pair.json"),
        ("fold", "demos/fig8-pair.json", "--chi", "4*m1"),
        ("bundle", "--genus", "2", "--euler", "4", "--method", "both"),
        ("obstruct", "demos/fig8-pair.json", "--chi", "4*m1"),
        ("search", "demos/52-pair.json", "--box", "5"),
    ]
    for flags in FLAGS:
        lines += [
            ("knot", "list", *flags),
            ("knot", "show", "4_1", *flags),
            ("knot", "register", "my-knots.json", *flags),
            ("bundle", "--genus", "2", "--euler", "4", *flags),
        ]
        for spec in SPECS:
            lines.append(("sw3", spec, *flags))
            for chi in ("4*m1", "m1", "0"):
                lines.append(("fold", spec, "--chi", chi, *flags))
                lines.append(("obstruct", spec, "--chi", chi, *flags))
            for box in ("2", "5"):
                lines.append(("search", spec, "--box", box, *flags))
        # the paper's claim is measured on the two pairs at box 8: 2,456 classes each
        for spec in ("demos/fig8-pair.json", "demos/52-pair.json"):
            lines.append(("search", spec, "--box", "8", *flags))
    lines += [
        # bundles with large Euler numbers
        ("bundle", "--genus", "3", "--euler", "1000000000", "--method", "direct"),
        ("bundle", "--genus", "3", "--euler", "-999999999", "--method", "direct"),
        ("bundle", "--genus", "3", "--euler", "100000"),
        ("bundle", "--genus", "5", "--euler", "-20001", "--json"),
        ("bundle", "--genus", "40", "--euler", "6"),
        ("bundle", "--genus", "2", "--euler", "3", "--method", "closed"),
        ("bundle", "--genus", "2", "--euler", "0", "--method", "direct"),
        # errors, one line on stderr each
        ("fold", "demos/fig8-pair.json", "--chi", "m1^2"),
        ("fold", "demos/fig8-pair.json", "--chi", "4*m1 +"),
        ("fold", "demos/fig8-pair.json", "--chi", "z1"),
        ("sw3", "unknown-knot.json"),
        ("knot", "show", "9_99"),
        ("sw3", "no-such-file.json"),
        ("sw3", "bad-base.json"),
        ("knot", "register", "no-such-file.json"),
        ("knot", "register", "bad-seifert.json"),
        ("sw3", "clash.json"),
        ("fold", "genus0.json", "--chi", "t"),
        ("search", "demos/52-pair.json", "--box", "0"),
        ("bundle", "--genus", "0", "--euler", "2"),
        ("bundle", "--genus", "2", "--euler", "0", "--method", "closed"),
        # usage errors, reported by argparse
        ("no-such-subcommand",),
        ("fold", "demos/fig8-pair.json"),
        ("search", "demos/52-pair.json", "--box", "two"),
    ]
    return list(dict.fromkeys(lines))


COMMAND_LINES = _command_lines()


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    (root / "demos").mkdir()
    for spec in SPECS:
        shutil.copy(DEMOS / pathlib.Path(spec).name, root / spec)
    for name, data in INPUT_FILES.items():
        (root / name).write_text(json.dumps(data))
    return root


def outcome_digest(argv, capsys) -> str:
    """sha256 over the exit code, stdout and stderr of one ``main`` call."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    blob = b"\0".join([str(code).encode(), captured.out.encode(), captured.err.encode()])
    return hashlib.sha256(blob).hexdigest()


GOLDEN = {
    "knot list": "05fe7749eaa1ae7f7785f0b6246959f12db1a37fb7f9e8c3e2a38271f50ec709",
    "knot show 5_2": "4e407b9478403d21e6e6c35a46fb5bcdfda8ce05a963748b6d36a66ca0a4641c",
    "knot register my-knots.json": "da17fa954477bcce55b5d5f289d6ffe7e2368062f10909db1340155b820739c8",
    "sw3 demos/fig8-pair.json": "61c795d555d16a193a6624285481e4bd3031256e0ef22abbb55877225d5d6a5c",
    "fold demos/fig8-pair.json --chi 4*m1": "061f6f552ffe4466710098a8415b8103acd59064c7289abe903d2553ed7aa2f9",
    "bundle --genus 2 --euler 4 --method both": "605d9ad00ac8e594775c1a481a7eb6b3496a252eb1f609389e1ba15b9a7a3790",
    "obstruct demos/fig8-pair.json --chi 4*m1": "c7ea2abb142435118e477258c76f065d3ba2ae4432a0643c5aa7062cd4c1bab6",
    "search demos/52-pair.json --box 5": "23b044a40839a3a49fddab3f558cdb9ef5e2d3a28d1eab4b2d024bf283fe0ae7",
    "knot show 4_1": "868fcdc151c15c2f6ea84f5b4f070b9463975d1178541793b373f2d7ac61c4ad",
    "bundle --genus 2 --euler 4": "605d9ad00ac8e594775c1a481a7eb6b3496a252eb1f609389e1ba15b9a7a3790",
    "sw3 demos/trefoil.json": "98b93e7b118ea1e3f9783764d6591541e930b5b85db22cfcb15393b351dab308",
    "fold demos/trefoil.json --chi 4*m1": "3b5353e978b5e2cc94e3297dd2ac550ec249e9eccf28fea7908a473177ccf778",
    "obstruct demos/trefoil.json --chi 4*m1": "7f630a6951506f40e8cb9a9399d9526bb6efff5637bfbdcd77f97ade399f678e",
    "fold demos/trefoil.json --chi m1": "78516884a3e6113f614dfc10eabc0a47068e5fd33a058b0e38d1b48b950471b3",
    "obstruct demos/trefoil.json --chi m1": "cea75cd98c6541c1d4e1fe416abe7e2c87665f6b484beed4e1e41bc990f5c086",
    "fold demos/trefoil.json --chi 0": "79248b6a75ba5b3e7706c8101b4883bb75a1d7e3a76b245d6f9d5c2a76eca238",
    "obstruct demos/trefoil.json --chi 0": "07ed77e608e2eb05c405a554347b67bb50b48a7a5c77a76b780d3f69d1bfaed7",
    "search demos/trefoil.json --box 2": "4734faad4691f1a622e4476a86794228570aeead5f4af260b93ea619511709a6",
    "search demos/trefoil.json --box 5": "94ea219ff71678775b7c7e7c6762cb04be079cde758ee02ce12f7899d707c222",
    "fold demos/fig8-pair.json --chi m1": "6d6cb4cd5211c1e6f7287b4a9e9a863fa0d30e411816ab4dd5a2ff2bb883cc98",
    "obstruct demos/fig8-pair.json --chi m1": "a9d8e82324f4ea67bb4fb9d1ef1cf604cdc73fdbc94130cbc71d3d0304a1c213",
    "fold demos/fig8-pair.json --chi 0": "811e67ac798466ba18eab8eb1e083db85a779351f62552fee44f7ae7641193ff",
    "obstruct demos/fig8-pair.json --chi 0": "4ab72b65520c38664e4cc0365305b5430b5e524c4b784bcd9e49d676f3ed741d",
    "search demos/fig8-pair.json --box 2": "9fd150c3ae750eb80a250c61d2d72db5f1a17d0ae02ff3e3ce41f62fde0f3ec7",
    "search demos/fig8-pair.json --box 5": "251c700b658850f3bd09b69a4d9cea45d1a48064d7aa8d8d40872701b0ec4293",
    "sw3 demos/52-pair.json": "23fab1a344df147286edb9d7a355045819ed4607b932deab21396d4c6d463fee",
    "fold demos/52-pair.json --chi 4*m1": "fc77d4001a2203b00fa823dba5a1f765682fe3dad2ec92f2973aad76d9cc5769",
    "obstruct demos/52-pair.json --chi 4*m1": "2ea4e308e893075de6045c74b94a41d6154381e96e3f4287c6ad0aea317eb187",
    "fold demos/52-pair.json --chi m1": "58db6fe337a9dfc50447957b17aa173bdd3aacfcc7365f7c2b6fd887b6830afe",
    "obstruct demos/52-pair.json --chi m1": "ff5fd05cd9a6831ac97f3a4f6544e66bd7074be0ba5194959d8173d06b241364",
    "fold demos/52-pair.json --chi 0": "6ecba0d0e96a953a5f6e2e540ea3bc2342683c76fe7e74e9d836a69bc4402750",
    "obstruct demos/52-pair.json --chi 0": "b6e1ef840991a852c9103ed4cad6b183f8327ba8d01f64487a962a23269b2d4d",
    "search demos/52-pair.json --box 2": "68c6189a8b4991466d0534cbdefa97c2803e66f40ab284d08f3189bfe11f33b6",
    "knot list --json": "d1bfe41523f7dc1e154b2ec6cef12c8d689c8d8cef5936d39760653e0fbe4160",
    "knot show 4_1 --json": "c82bad4ffb72c9214b92bdf9686bf0922815afc3ac5852dfd7d4aa7493181cca",
    "knot register my-knots.json --json": "0b82f98b927ef310307623ac467e67ad63e9b8ca1deb381ad775d1b8bdaf4a8a",
    "bundle --genus 2 --euler 4 --json": "051b441cc9b1bd7372d3b88a41ef2c7ea34e478c4034d9d8206fdc375028eb4f",
    "sw3 demos/trefoil.json --json": "732cb94196ae0506940b965a8ec09c61c1efc9664b4066836253c91b3b26767e",
    "fold demos/trefoil.json --chi 4*m1 --json": "52aa53d2d47fe720b4ece34080bb02aac4b21c05731d0b604104bfda667cb6c2",
    "obstruct demos/trefoil.json --chi 4*m1 --json": "3502195691e1e9611be3ed45f477def6dae0ae20274c57ffe82f1c8bb9c0a381",
    "fold demos/trefoil.json --chi m1 --json": "d736498eff6cccfdb4a6bf252196fe9660f9b92882a8c26a65aff9e69de7aed6",
    "obstruct demos/trefoil.json --chi m1 --json": "68dab22e7e81434f5328f30a046bb982df38119ca55e7227f01d99110f48d7d4",
    "fold demos/trefoil.json --chi 0 --json": "cfbb083da4fe0be53197e814d7dd897b4d5893802f393e17b371cdf8d433745f",
    "obstruct demos/trefoil.json --chi 0 --json": "39e951ec44170648fe5e8c1707e26e0697a71ad049995ed3450e10a3c13c297f",
    "search demos/trefoil.json --box 2 --json": "9924e67e91e732c9324deb7ba10c944af1b9b0d2f9248b4cc91480f8f3ed97f4",
    "search demos/trefoil.json --box 5 --json": "f7bef9fb1f617d21cd337331a3db8caa2ad80faaf442fca50203de193aad292d",
    "sw3 demos/fig8-pair.json --json": "c9a6070e8217e429f3eb00f818a0050e44340f3f245e80fca99954673494308d",
    "fold demos/fig8-pair.json --chi 4*m1 --json": "f6379d3433ad29652aeaef5e48265b635d5eb5a8bc991a3d2628b7c2e97c0fbb",
    "obstruct demos/fig8-pair.json --chi 4*m1 --json": "923e82e245811907a86d6ef9a1aa9d0e32bec9f9edfc690f427b40833d160f4e",
    "fold demos/fig8-pair.json --chi m1 --json": "9b0e83fe91a209b0f97c30796ceea5f45e53acf2a38b12dc791c2e9e5780b3a4",
    "obstruct demos/fig8-pair.json --chi m1 --json": "75bc3b7c9b2bca584bb4a945829a7095c799287b6bdf065f31491cdc4b918c85",
    "fold demos/fig8-pair.json --chi 0 --json": "b944c533aa8f05e6e24abdb2ac770ecbee3f133a9fa1aa43a96aac201a6887f9",
    "obstruct demos/fig8-pair.json --chi 0 --json": "8ced2ef0d066f2b0fb8a4d3539eaac45021a9c350ecef44fdca3df9ab0ade646",
    "search demos/fig8-pair.json --box 2 --json": "ab2327e8a5c73ce1feacb9230f78ec64b3493b0606eb68ffa49ae660d6ea37a0",
    "search demos/fig8-pair.json --box 5 --json": "1c0279579a050e59603f56160af571b5b854d4c198d8bca8610a61e066006247",
    "sw3 demos/52-pair.json --json": "0ac9d4435d89724d43873f7d1f3675fc9a014d8a2d986459dcab7f9b246b1cd4",
    "fold demos/52-pair.json --chi 4*m1 --json": "b22c280c6c687c6c18528992ec8d0b0d56f1ea7eb4e2eb5fe569d689130fd62f",
    "obstruct demos/52-pair.json --chi 4*m1 --json": "e08f1e8176b96c0df16338df98b8a10b1f01b7040c3518051722daa47c21ad31",
    "fold demos/52-pair.json --chi m1 --json": "5a88d939909b8f338a09fc8fcc91f247d74a907a2d68f162a1979636f5795162",
    "obstruct demos/52-pair.json --chi m1 --json": "53432b76515c526fea3a25837793e6f0fe7ed1b0d1432883a50a03742f8a686c",
    "fold demos/52-pair.json --chi 0 --json": "8b03ebb0005d8338121f3d9c8fb7086de8dfbf47373652c5dc0a8d117541e5c7",
    "obstruct demos/52-pair.json --chi 0 --json": "62f6d1fd9a7067cd7f257cb154fe37c65e0bd1fe1ffa5d71b1ed53eaad750346",
    "search demos/52-pair.json --box 2 --json": "2a3da842c959d59828d796293cdbc65890f2d6ee2805439b3e279b8920445c03",
    "search demos/52-pair.json --box 5 --json": "d0748557a15f443a3ffb22c18d7e288f72c8f6caf65cb60f41a2b03d31789a45",
    "knot list --quiet": "05fe7749eaa1ae7f7785f0b6246959f12db1a37fb7f9e8c3e2a38271f50ec709",
    "knot show 4_1 --quiet": "868fcdc151c15c2f6ea84f5b4f070b9463975d1178541793b373f2d7ac61c4ad",
    "knot register my-knots.json --quiet": "da17fa954477bcce55b5d5f289d6ffe7e2368062f10909db1340155b820739c8",
    "bundle --genus 2 --euler 4 --quiet": "cc82db6f9665a15449076874bced07ad205989266e8eb550e5fd0565d3e6a3de",
    "sw3 demos/trefoil.json --quiet": "3b543940a898dc32b9d8fed2b0d932f205ecd4e67f423627cceac8a4f31de467",
    "fold demos/trefoil.json --chi 4*m1 --quiet": "e7d94952159ae9d05fc90f1251ca43616dbeffbcba5f4b7dfdf6312c51cf8d43",
    "obstruct demos/trefoil.json --chi 4*m1 --quiet": "50eb94c46e0f591eb88a62e8644c4088ae5fa5cd94307240d4b101b7fd044a37",
    "fold demos/trefoil.json --chi m1 --quiet": "75ab64af49c54a42ac208317a55fe226ad736df32ee1bd257720c06c6d96ff45",
    "obstruct demos/trefoil.json --chi m1 --quiet": "50eb94c46e0f591eb88a62e8644c4088ae5fa5cd94307240d4b101b7fd044a37",
    "fold demos/trefoil.json --chi 0 --quiet": "faa4a89016fdc4a347a7d958027600d2cb6780b3e51f0572e754bf62e205f908",
    "obstruct demos/trefoil.json --chi 0 --quiet": "06a92ca33bafc0ff0d71c3d8c7759f6b0723e752160e8e36ea1b6cd2b7077f2c",
    "search demos/trefoil.json --box 2 --quiet": "c5aa8eb865d8ec1a4d94ef8430ab67f1a41e81973b6afb2ed338b9b9cc71a397",
    "search demos/trefoil.json --box 5 --quiet": "bf1f7b51676d8d1cd0166f820d39d80194529510fb853839ef1b8d81d7dc4907",
    "sw3 demos/fig8-pair.json --quiet": "42e3a9dce4641d8237abd248e6a00923ca9e62fc7f96b420716704a6ead70aa8",
    "fold demos/fig8-pair.json --chi 4*m1 --quiet": "7e8be2be2f0cd4ec44783117c440c49eb344330c5005bb9901737efd983bd844",
    "obstruct demos/fig8-pair.json --chi 4*m1 --quiet": "538110ebf4fa4301abe07ba8241b132257a2ae30e993bf7f93f52bfb3c1d1bd7",
    "fold demos/fig8-pair.json --chi m1 --quiet": "8a61acc9734e335f33227dba01b763d6bf2a74dbe9681752ffb7b78bb1db8929",
    "obstruct demos/fig8-pair.json --chi m1 --quiet": "eebcd53879a8e390e8d651823f06c2833a69118a133465b15a847862a98b9893",
    "fold demos/fig8-pair.json --chi 0 --quiet": "fd7a9a72cbc13b262ef2ae2cf99eeb71280d1fd714bc546557fcb72a4a123e36",
    "obstruct demos/fig8-pair.json --chi 0 --quiet": "1befa392e11cacee98887d4d771a66764701c8726bbae0df1e40a535e3b16f22",
    "search demos/fig8-pair.json --box 2 --quiet": "8938eabdd93b2ecb2f0a2689845c852e8f4ec0749ed939d7737b80763010e9b4",
    "search demos/fig8-pair.json --box 5 --quiet": "11144cb0814526e8c559c1a98ce4c538704d5824f84d905583c718f0ee5cfdcb",
    "sw3 demos/52-pair.json --quiet": "1fc6950fd10a4c7a8f80287b0680b8f7f1592202d1500759f9f73d388f65b74f",
    "fold demos/52-pair.json --chi 4*m1 --quiet": "fff030c7249716a157e624646340e828fdc250dfc95c8a952be45c658699811f",
    "obstruct demos/52-pair.json --chi 4*m1 --quiet": "ee87c4da160e80e8178de1d8330a870442038c7409b32d9845a3238b96cd9a2d",
    "fold demos/52-pair.json --chi m1 --quiet": "67549c1ab0c9c8e9bcfdec851330f4811a012c62eab552d6ea7038a4dc0ca597",
    "obstruct demos/52-pair.json --chi m1 --quiet": "ee87c4da160e80e8178de1d8330a870442038c7409b32d9845a3238b96cd9a2d",
    "fold demos/52-pair.json --chi 0 --quiet": "f7598e07b21159af69499e5d8537086b0762bb54adefa8d7600c72344806645d",
    "obstruct demos/52-pair.json --chi 0 --quiet": "ee87c4da160e80e8178de1d8330a870442038c7409b32d9845a3238b96cd9a2d",
    "search demos/52-pair.json --box 2 --quiet": "23d9861b639c0687102d7bec55fc6f15d0a0f5932aec6f5cc533d3a7f948961c",
    "search demos/52-pair.json --box 5 --quiet": "ee269e9abf16b7f96f0e3c9b83b3c799e38df2de3560145c509d84d6f147e77d",
    "search demos/fig8-pair.json --box 8": "792c1ed6e3bcb21d3bc4e310522116fa9591414d8589da0cd4feb09ab094a7b9",
    "search demos/52-pair.json --box 8": "084f4bb2dc36e145297f64846a793b31e1553a0aa0b47b945b9d92660e340135",
    "search demos/fig8-pair.json --box 8 --json": "e39acd20313a839d55f6bfe9cb9e01ce06c45a9c0f95e507fdf49ffde434d082",
    "search demos/52-pair.json --box 8 --json": "a9bc491ead4cc7902628ef8e3adc882d4c2d59f524acd713a31024d6c55a86fc",
    "search demos/fig8-pair.json --box 8 --quiet": "6cae3f0faf612744dbf751ce5cdd3e51755bc54104ea246ac724f76f2f87725b",
    "search demos/52-pair.json --box 8 --quiet": "7a1bd60a60fbec180d56c80ceb90716431612085b9d5f0538e52f51a660ad4b4",
    "bundle --genus 3 --euler 1000000000 --method direct": "2845581c7cf57b14b2f72d8555842460c827719b8ba9acd8d87411c2555b4439",
    "bundle --genus 3 --euler -999999999 --method direct": "ea7e58948031ba90d6db1872b400051fa17489cbed009d547580614bb3beb274",
    "bundle --genus 3 --euler 100000": "592093fd84ad77f7fd1e140c2e02a10a16f85a9261b153618fcebf9e92734508",
    "bundle --genus 5 --euler -20001 --json": "ae5893f405a3ffe237f372157e04f8d77009de12cd7ace0ecdf8076077517701",
    "bundle --genus 40 --euler 6": "ff4740f0a28cd9e900d47495edd0244d7d1c3007b7f40100b59b72fcd6dc2615",
    "bundle --genus 2 --euler 3 --method closed": "2694dcc0e926b921e0716ce59cc29436174dfe0931de6df62b43834ffedce4cd",
    "bundle --genus 2 --euler 0 --method direct": "4b20f082419ac6f01932e3e4c4502e197b8ef17474921edfc54f4194d2370362",
    "fold demos/fig8-pair.json --chi m1^2": "8bd49e4a5dffaf92f3481b8edd7447ad274f4e512b4f57b0eda6c4297eb59dd0",
    "fold demos/fig8-pair.json --chi 4*m1 +": "010e4b9dc7b8aac4e8e89d9e1f6c60b6a0a9d268366535de9b7285082725418d",
    "fold demos/fig8-pair.json --chi z1": "eaa98d95207f77107722326ec79b49eb9a9cfd5f419cb86e3ad6eaa23fec7d09",
    "sw3 unknown-knot.json": "4a3c0d894319d94c0a9604508c2a50a2f59be0a9d93a92d13f337a45b5bce207",
    "knot show 9_99": "4a3c0d894319d94c0a9604508c2a50a2f59be0a9d93a92d13f337a45b5bce207",
    "sw3 no-such-file.json": "15e309ef522aedabaab6276bc95ba5efe626aeb334474220e6828c1dd38812ac",
    "sw3 bad-base.json": "754fe478c5bb8ecbcce403e49151406875a105533766a5a69273e9b66a0e7bbe",
    "knot register no-such-file.json": "74940a39dca6367461a148dfea26895004f2ae46a6d1a5fd72faedd4af2bbc06",
    "knot register bad-seifert.json": "eaab60fc7d03bec1334d5d538e61004236e0e26cbe16e0826ec17dd601170d25",
    "sw3 clash.json": "38e3a01f8f20f4b3590be2334ba7ea325bc06182a2627bcde6c36858c83ef0d0",
    "fold genus0.json --chi t": "ac0906aa9a693298711d8770ef559c92b5b54d31e976c4a7b8a5417a8dd61a31",
    "search demos/52-pair.json --box 0": "c6df8a84a2500d4a81f671ba1029a030791e2dcc549a016a86c24d835cbc73c6",
    "bundle --genus 0 --euler 2": "ac0906aa9a693298711d8770ef559c92b5b54d31e976c4a7b8a5417a8dd61a31",
    "bundle --genus 2 --euler 0 --method closed": "31e8afbeb8de1377114956ee141888da164c543d844c69d297e1befbac2d0d1c",
    "no-such-subcommand": "c71579319c48d1a477790d3c720571b651d8be7f380df30ef09ae2a3b5246ce3",
    "fold demos/fig8-pair.json": "0ef110de826770fbdebe8f78cb5a57d56123eafd695dff2326735957c3c7c50c",
    "search demos/52-pair.json --box two": "811ce88750e00f12384272e1b4ceb243c9ef15a893b92421248c14261a14269d",
}


def test_every_command_line_has_a_digest():
    assert sorted(GOLDEN) == sorted(" ".join(argv) for argv in COMMAND_LINES)


@pytest.mark.parametrize("argv", COMMAND_LINES, ids=" ".join)
def test_bytes_unchanged(argv, workdir, monkeypatch, capsys):
    monkeypatch.chdir(workdir)
    monkeypatch.delenv(ENV_KNOT_TABLE, raising=False)
    digest = outcome_digest(argv, capsys)
    assert digest == GOLDEN[" ".join(argv)], f"output bytes changed for: swfold {' '.join(argv)}"
