"""Golden CLI reports: the sha256 of every report and every ``--out`` file.

Each call runs in a scratch directory holding copies of the fixtures, so the
paths a report prints are the same on every machine.  A changed digest means
a report or an output file changed byte for byte; when that is intended, the
new digests belong in a change that says why.
"""

import hashlib
import io
import pathlib
import shutil

import pytest

from antipodal.cli import run

FIXTURES = pathlib.Path(__file__).parent / "fixtures"
# the shared fixtures, plus inputs that reach the searches and audits harder
INPUTS = sorted(FIXTURES.glob("*.elg")) + sorted((FIXTURES / "golden").glob("*.elg"))
NAMES = [p.name for p in INPUTS]
# an ``extend --map`` argument per input
MAPS = {
    "bad-triangle.elg": "u:w", "edge3.elg": "u:u", "nonmetric.elg": "a:b",
    "path22.elg": "u:w", "quad-expansion.elg": "u:w", "quadruple.elg": "u:w",
    "two-edges-f.elg": "u1:u2", "pairs-44.elg": "x1:y2", "pairs-52.elg": "x1:x2",
    "pairs-73.elg": "x1:y1", "partial-31.elg": "p1:p2", "partial-44.elg": "p1:p2",
    "partial-52.elg": "p1:p3", "witness-31.elg": "u:w,w:v",
}


def _calls():
    """``(argv, writes_out)`` for every fixture x subcommand pair, plus ``gen``."""
    for name in NAMES:
        yield ["validate", name], False
        yield ["complete", "--mode", "shortest-path", name], True
        yield ["complete", "--mode", "antipodal", name], True
        yield ["fold", name], True
        yield ["unfold", name], True
        yield ["close", name], True
        yield ["expand", name], True
        yield ["extend", name, "--map", MAPS[name]], False
        yield ["verify-witness", "edge3.elg", name], False
        yield ["verify-witness", name, "quadruple.elg"], False
        yield ["verify-witness", "--mode", "gamma", name, "quad-expansion.elg"], False
        yield ["verify-witness", "--mode", "gamma", "quad-expansion.elg", name], False
        yield ["search-witness", name, "--bound", "8"], True
        yield ["search-witness", name, "--bound", "8", "--pipeline"], True
    for name in ("edge3.elg", "quadruple.elg", "pairs-52.elg", "pairs-44.elg"):
        yield ["search-witness", name, "--bound", "10"], True
        yield ["search-witness", name, "--bound", "10", "--pipeline"], True
    for delta, k, size in ((3, 1, 16), (5, 2, 12), (4, 4, 12), (7, 3, 12)):
        for seed in (1, 2, 3):
            yield ["gen", "--delta", str(delta), "--K", str(k), "--size", str(size),
                   "--seed", str(seed)], True


CALLS = {" ".join(argv): (argv, writes_out) for argv, writes_out in _calls()}

# call -> (sha256 of the report, sha256 of the --out file or None)
GOLDEN = {
    'close bad-triangle.elg': (
        '0d857be8c3cfe9a2a391ec21521549340c7ac99fb235d9f052b88d29019f97b1',
        None),
    'close edge3.elg': (
        '5d0f77eb5e025cb5c1ada143167fea2a15122ee8dc76b2d3ec25962890e095c2',
        'cfd97839930a12f35f2fdaa0f0b26deed6d0a811abfe0145790f92e62a166671'),
    'close nonmetric.elg': (
        'ad87c25b11478ebe73d0b71907e07d7753749e02b597d3dbc4a6d778cf868024',
        None),
    'close pairs-44.elg': (
        '322349c686d53cec8071ae3457aee99e6f70b999db6e8c6393a65026f806b0e4',
        'a7c82238c6f41f6ef608e9ca0e87c764b3ce5162bbd5900ba8c03010a6fdc20f'),
    'close pairs-52.elg': (
        '0618c46cc21663d1d569225739bad5a95fc729393d814d9e99e853d8989adb03',
        '6071e55ed88179034927a0b4cd75d023cc193cc33d2a7691e22f9610001c656f'),
    'close pairs-73.elg': (
        '10e660c05021af4c495f8c6126b09de2c61315db08fde15e2bd031ba12986556',
        '4b032eb162d2ba52f0de343dc83101fa1355e000bed600f0876dbf6970997e5e'),
    'close partial-31.elg': (
        '93fbdbb8df6ee8b6703e88d4e4e6cf899891d2ba4bf08cbc0b34dd7be6c9a71d',
        None),
    'close partial-44.elg': (
        '5e471652ccc4052774f70cf2232df4acd8a392f14509136d3b3e5b65cd4d51f7',
        None),
    'close partial-52.elg': (
        'c50ebf2dc34445637eb729aaa58df5253dd4cd0cb32952a66db4819e80ab59bd',
        None),
    'close path22.elg': (
        'cee3d101a07a06e9eb1d6f28c76a65162ef47fd7dc68b20dbe21cf94a2fb8f61',
        None),
    'close quad-expansion.elg': (
        'cd053adec8e99e888f0055a8467dd4054c3e59a5a46fd61c02c019d8d6801111',
        'f56166f7e629030a10f55d552adb2ba7b7c430c53fad64d431e2ce17d7bb25f1'),
    'close quadruple.elg': (
        '48f4659da87af53f0b50c870882eeb511c602574b121a9608c8d5716d11350aa',
        'f56166f7e629030a10f55d552adb2ba7b7c430c53fad64d431e2ce17d7bb25f1'),
    'close two-edges-f.elg': (
        '81247d6a216e6f99ef7c4362196452344fc10edf2abdc7ef57ff4a1811fc99eb',
        None),
    'close witness-31.elg': (
        '5d007ff365781aa7dc32b13a786b47b4e6ececa422a332ee36a497ee8fb3a626',
        'efae84cf9b4778335ab4c4af08e60f584c94345b0f37552e1e7a0bd361dc054b'),
    'complete --mode antipodal bad-triangle.elg': (
        '5b84c30b72041e2f7e12bf8cb974e774ccdc508fc5a2f32880756ec8b2ebd25d',
        None),
    'complete --mode antipodal edge3.elg': (
        '43f49159a7e68bb68965843c5a61c59c59eee898210055a0f9c459640a260156',
        None),
    'complete --mode antipodal nonmetric.elg': (
        '6f75ecda3e089b4ddb90eab25cc2acb157e0911174c1014bfee894a28e24a8d4',
        None),
    'complete --mode antipodal pairs-44.elg': (
        '9448ef9b3d8148f0e5a7bc3ff678aa23367b56f8863c183287cbe1826da74364',
        None),
    'complete --mode antipodal pairs-52.elg': (
        'bd1126a3fe16f35259cd4f657e2bce5ff86c25d392bc8ab581ae3d6d066119d3',
        None),
    'complete --mode antipodal pairs-73.elg': (
        'b28cec95b16af04185969d422ad0f55a70b54550ba4e10ecc25085b20a442f1f',
        None),
    'complete --mode antipodal partial-31.elg': (
        '292fa36c7c680470084b481c49397d020806b525037e2f81d41e62a74114cacf',
        'a836f4c28530600babbd99f661a39f6964212c5e206e352c01af99a84ac3402f'),
    'complete --mode antipodal partial-44.elg': (
        '6e673cc300d1ea30df0a338b321452309ce27b22df9ac1e7899ea9d15f910d9f',
        '76ad59de01f289ac6cd81bb5d4ad8ed9dcf48c8c5aa2de070f13060c0ac55bc6'),
    'complete --mode antipodal partial-52.elg': (
        '552f8731c80db0a84e317e2debafd8417288bc6a4f36bc471ec9f90b084e9ee2',
        '215ebf96498087f9a627848cc0dad9827587c5756177c01250b4bd92236b7b62'),
    'complete --mode antipodal path22.elg': (
        'c363fe4f9ffffa45d34d180b808a076f208c07a6e98d8db8341704e40c8e468a',
        None),
    'complete --mode antipodal quad-expansion.elg': (
        '41476aaa28a996c6191f634c34d986017dffa7af0fe520dc02375b530fe754a8',
        None),
    'complete --mode antipodal quadruple.elg': (
        '86ed226895922920a30f7535bcd0cb349e2c59ae4a7ab258d8bc0bb9cbe61ed8',
        None),
    'complete --mode antipodal two-edges-f.elg': (
        'de900c0c3a12a448672ed87cf297db4b4fa30b724c65207a2e92a2472d30e6ee',
        '1544cd222837a21910863d074f4a7ea2b485927ae5ea6df1fd1cca29425476e5'),
    'complete --mode antipodal witness-31.elg': (
        '0bb7e24460dd9687d5872210a1aa1a5921a3e0196c8105a1d499ed65ba4afe95',
        None),
    'complete --mode shortest-path bad-triangle.elg': (
        '31535fc1bc2e396b3a9aa916ba48d3924a48ff9454ffcf807435ebd5e087c539',
        None),
    'complete --mode shortest-path edge3.elg': (
        '92823f1aa35d78be5daaa898c1d3d54ad6c6d62353462923a3144ab9d9f7b53c',
        'cfd97839930a12f35f2fdaa0f0b26deed6d0a811abfe0145790f92e62a166671'),
    'complete --mode shortest-path nonmetric.elg': (
        '781b14a69fd958cb0d343347692ba1943bcc464587c7bca348ebbf3c958f81fd',
        None),
    'complete --mode shortest-path pairs-44.elg': (
        '898cce52bfeec46f449b7d9c16b1fcfb9d371830e0f50ca50d5ece5b200d70ea',
        'a7c82238c6f41f6ef608e9ca0e87c764b3ce5162bbd5900ba8c03010a6fdc20f'),
    'complete --mode shortest-path pairs-52.elg': (
        '918ddb3edd43595e8677e98da2d137c619336b7037f106845db29716b898f796',
        '6071e55ed88179034927a0b4cd75d023cc193cc33d2a7691e22f9610001c656f'),
    'complete --mode shortest-path pairs-73.elg': (
        '16bdc805b6e8c4c3f808668ec9fd53991dfc309cb58c3289aee1d11f30385743',
        '4b032eb162d2ba52f0de343dc83101fa1355e000bed600f0876dbf6970997e5e'),
    # the completion grows delta (3 -> 5 and 5 -> 6 below), so the input's K
    # and variant are no longer written; the rest of the file is unchanged
    'complete --mode shortest-path partial-31.elg': (
        'ead7143b7f774b8bf35bf90e9e6faef7c6e2aa9abbfe3bffbd92358158f717e2',
        '47ca3ed10bed2654e271175c1f997f5f90adc28fb3a1699535b1c9d9829c5dad'),
    'complete --mode shortest-path partial-44.elg': (
        '640ce5a0b9502f5e9b64cdf393462479b3827ef834ced62880f39e233f0e2f9f',
        'c0d3219e107a5250544910b44b66892ad48e26664fcdc4150d83e32fe62b07d2'),
    'complete --mode shortest-path partial-52.elg': (
        '31db542e02b324a605b3438e9a9f4a065954f6421fbc17448710b2447bdb791e',
        '9fa0499cfbc6383985f1c32a65a4763ed345e914dd89b044017cecaf3640ac65'),
    'complete --mode shortest-path path22.elg': (
        '21c9c47c978e34a7eb04801ddf287c3cb171c6dc1d95d08ddb58e836ed1f9982',
        'e16d6e6fad4c5ccccf4d3b8cdb52bbcc948ef5d717c0ac9d5fbb6cad78d332a1'),
    'complete --mode shortest-path quad-expansion.elg': (
        'd84b5ca71f74df808309633607302faa3e72a4ac37e892dc7d9836521a0edf6a',
        'f56166f7e629030a10f55d552adb2ba7b7c430c53fad64d431e2ce17d7bb25f1'),
    'complete --mode shortest-path quadruple.elg': (
        '8163de60e32a116d417dc150758912ddea84970f76c4e0fec9dc256c6bf1e897',
        'f56166f7e629030a10f55d552adb2ba7b7c430c53fad64d431e2ce17d7bb25f1'),
    'complete --mode shortest-path two-edges-f.elg': (
        '58abd63ff50c292a883eca7320b553c117e8b9ccec0ee1a5d4b3b368bcc1c94c',
        None),
    'complete --mode shortest-path witness-31.elg': (
        'e18c91fd15db620a4a30741c8c9996b688dbc7d2a247ac565c963e93bc0ecc4e',
        'efae84cf9b4778335ab4c4af08e60f584c94345b0f37552e1e7a0bd361dc054b'),
    'expand bad-triangle.elg': (
        '4811c80c6dcd0a4b7c6764408a1d2c8ea1d5cdb52d049a7ee4f1b6a5d19b7aec',
        None),
    'expand edge3.elg': (
        '3d95bdc4a54098519401702e38bcb86589a72cce6eb4c10ff27d5f05fe5d0b56',
        '43a836e4ec643b0189697b2b473be56075b73ed34da9f8d165732d484b29277a'),
    'expand nonmetric.elg': (
        '9cdc4dfca81d30a05facfd279d37710451121290b6b485a0b75915ec0059dffb',
        None),
    'expand pairs-44.elg': (
        '74b9a986199d16ccf9ce3bf3ff9ab78eef6330d7ab8c4736bed78999236b5497',
        '390b7553b8954dcdb02268f5d48b541f80f4c99c3141141c2add565b57df8c85'),
    'expand pairs-52.elg': (
        '0eea840db7108ebffe64ed4b56bf73c49d8c1c1343aba5556c598bef409e753b',
        'd3fc2b26389aee392cafc89aa0e43eed47683f02d294e5271ff2dc4b15cc2d5c'),
    'expand pairs-73.elg': (
        '66cb05be85e5ff6b6dc8b27b04e14cee4ff55ac966d817567b0ee1b16d222e5c',
        'cde12f34f4e36b0958f84249eb3e459b45c6458f0e05b1d0a5fb0fdd54188ad6'),
    'expand partial-31.elg': (
        '431ee2f69c5348f9395d14a085a870ac86f175e9b07375bc70279317be2f3071',
        None),
    'expand partial-44.elg': (
        '96be28a51e8b85f8ad2a3cadd4bdfcc4d8742f180b3cf257fe009f931a90243a',
        None),
    'expand partial-52.elg': (
        '635786eb1548394a54f437799ea4e2e5a920139cc6737333c53e5c7d52ff0050',
        None),
    'expand path22.elg': (
        'bee8654547d76fc9dab5b5a536d42a277e4ea1eeaa6935470e3c0a5034276378',
        None),
    'expand quad-expansion.elg': (
        '9369621897442e42fedf538ad6142c277fcf514c2c5cde176926cc5b497e0aa9',
        '115d5d591cd7de1adc03717b105e56d4bb71fd9a541e07b80bd7f70eb2908dcd'),
    'expand quadruple.elg': (
        '30bdb3f7fad562ed001169053c99a0a90f9908d9d593a729a4f8c2f27afc2075',
        '115d5d591cd7de1adc03717b105e56d4bb71fd9a541e07b80bd7f70eb2908dcd'),
    'expand two-edges-f.elg': (
        '89dee34b1c4df741dad93ebc2f772f89dbdb11a550c50e36cf472dd1ce2d92c2',
        None),
    'expand witness-31.elg': (
        '37f1441b5303f1be214d2f4aef418b96de99476c78326168551ab2d1ccc457f9',
        'ad8969f7a1431dfadee17bd63ac441ee007e8253ef1f0588cb495f27153b7ce8'),
    'extend bad-triangle.elg --map u:w': (
        '4cbf13a9664ff58bc0257b4bc62af6528455a15297e72c088f85e2de9f558502',
        None),
    'extend edge3.elg --map u:u': (
        'e22cd08ea51d926ac98f4ec1ad12ab40eea25716915b6926b33c1ee7e873d21b',
        None),
    'extend nonmetric.elg --map a:b': (
        'adf014267a9bef72bffcad35e7926fd5bb780f7cf25f356052e0b4e63999c922',
        None),
    'extend pairs-44.elg --map x1:y2': (
        '805b602f72d3954dbcc0da5b58c6430662c6c232a8b9aa9b9d81b2ad2e3886de',
        None),
    'extend pairs-52.elg --map x1:x2': (
        '4ca37d94bddf6aa9c514420c4f141d4a4534e509436ce11a0a3dfde9fa5fbb41',
        None),
    'extend pairs-73.elg --map x1:y1': (
        '3bf3fd13d7f9660cd16ee2afdea6a8d6e0553230933ce75f17f2276a89326dc8',
        None),
    'extend partial-31.elg --map p1:p2': (
        '6a9192718a8decccc486a12ff5c135fd1e426cc5386ffbf22271f26b84dddcdb',
        None),
    'extend partial-44.elg --map p1:p2': (
        'd656dc35b94e762906f8f8b932e0d286343901eb4112c1affdea289998a7304e',
        None),
    'extend partial-52.elg --map p1:p3': (
        '39e1836723ce005b19e180a4b28eb148608d165bedcfffeec44ab0193b78fcab',
        None),
    'extend path22.elg --map u:w': (
        '2b5053cb95c713a4b5ee47b4632a9cc21d7dbb7581c5f99638b10c351265ae31',
        None),
    'extend quad-expansion.elg --map u:w': (
        '765e749f6c48347147c0d82ec346f1287cf8a9f22b8203846f35362fde4d2bf2',
        None),
    'extend quadruple.elg --map u:w': (
        '4ea396303cf0734d3f42be754e3893dd882ac6a81e20d516ea557a72c8a38c56',
        None),
    'extend two-edges-f.elg --map u1:u2': (
        '86a3dc76611c921c0e7aaacaae192addd9b650dde6e5132062cbcfaee70814a1',
        None),
    'extend witness-31.elg --map u:w,w:v': (
        '55b2dfef8cf82360ac7318e0780508d5b9b704a30c1bcb205cf0ad6180bf1b9a',
        None),
    'fold bad-triangle.elg': (
        '5798a150d6f123a9ee89a55eb2a286e5ce46936b07b9edb8284160b0da263d1e',
        None),
    'fold edge3.elg': (
        'f7655e318a12c044b3707b182910e463ecc2788cb1f43b7e521102921acd1218',
        '2d2291722a3ed0367b4b8060e1be02f06cfd1af18a614d6446daeb78bbd56778'),
    'fold nonmetric.elg': (
        '819536f0609a32478fb1e13a93a33a7473dfb5dd798856d33fc9d43a866d74ef',
        None),
    'fold pairs-44.elg': (
        'e37ca88c8553b27f5330870c0b949b1ff77e4a727621de9407a92aff48fbef3c',
        '4bb60fe5dbe66c0d86413ef61e886a0fce80600c4de50fd3ccbab97c3146a260'),
    'fold pairs-52.elg': (
        '5d336ffb3dc21afd38cd40784df2145453829dd916c918c7dc52864fa9875d02',
        'dd6bb1c65dd9b35c7c57a76cc6210d1eeea42fc850a2e11c41bdff34ae79b333'),
    'fold pairs-73.elg': (
        '61a799815f8122aeb9eec4eb44f61a5bec7646306e231b748b57a62dda4b8a02',
        '9e1272d36e23a185ea964936ca63d1e1a71637e20e7bb030c1775c671b739118'),
    'fold partial-31.elg': (
        'e1a86636bec3f4360ec5710c0ead57ae1aa4aee184680ab5c4ab8d6163dd4cdc',
        None),
    'fold partial-44.elg': (
        'f5907878dd22ad6740a70da5fbac086c21828b3ce714f06fd5b4ee0b07dc1b5f',
        None),
    'fold partial-52.elg': (
        '8304fad6fcc1bba8f6579ea0a6f126e2ea30fe307f90af97282ba7d237588c59',
        None),
    'fold path22.elg': (
        '35658412ecb84f64a1a16bbf1bc6f1c9393dd3ed60b268befd50e1a1423281db',
        None),
    'fold quad-expansion.elg': (
        'c10d15eeb93f59f2bee0351c2fd963f3afd8ef5e3d67682d915079fe9c4a759c',
        '639acddc7e28a78ce343ff0db32ac688a10a3dc07988f911d8e95031be1d44e9'),
    'fold quadruple.elg': (
        '5aaa966bcf392c9ea177e14a1dfce8ffb9f1b03a22284180cf957c664f568344',
        '639acddc7e28a78ce343ff0db32ac688a10a3dc07988f911d8e95031be1d44e9'),
    'fold two-edges-f.elg': (
        '77d733a9afd6981b048aabcdc690774b5bd385a47bf9478c8c4674d41a8739a7',
        None),
    'fold witness-31.elg': (
        'a35351c9116119dbeb1f28296376303a6c0b1e510bb8565df65ec6cae0fcd9b9',
        '894a857f7fc3a501d6dfb9ff902e14d534031b2d1ded72b8676f2a2aa903ff9a'),
    'gen --delta 3 --K 1 --size 16 --seed 1': (
        '1df8f3052cd254e72dc35e98e7cc0dc5385085d1bcb55defc9ab8449d78f7b29',
        'bbc87438173fde4e1e1482522373bc366acee13aa3958437cf920c1382660363'),
    'gen --delta 3 --K 1 --size 16 --seed 2': (
        'cdaddc7a071ad9cfbb362dda36ba76596291f62d584ed2feb41cbfc8775fea4c',
        '5c3090e5f6cd54cfb6bbf9aa559557787dc07c157818779d6caddcc3d9879c6b'),
    'gen --delta 3 --K 1 --size 16 --seed 3': (
        '9f6c34818e30e09bc91982f072c1fa70fed29ed71b02e8242e446a352781a8ca',
        '7686ace41ecb143e88188b8a1cafc785ffa7d52d61acf2131e649f75a2a9db5a'),
    'gen --delta 4 --K 4 --size 12 --seed 1': (
        'be8906456bdb6044a44f7148ed7a705fe9b1f076b93a2af61e93cb4483fe6d6c',
        '273a30d9878b803d917d150e1bebea7502beaad8afd7583dbf1f5d1fffa3f450'),
    'gen --delta 4 --K 4 --size 12 --seed 2': (
        '7d60f1edc0e8a49189c360a8c7725066d904bc884460e1d1d87b32778020c321',
        '92f84e33c9c5c5ff7841e209e4c0d9b1cf8b8b5a6bcbedc2d2b26271d6c562b0'),
    'gen --delta 4 --K 4 --size 12 --seed 3': (
        '43e2e40fed3019c3c3738bc58ef8355554345102057b831ea43afa4d9adca807',
        'a92a3d71abe12c642b24a7c37902a1842d22789b650f0d3d1c9d0b111726ee7c'),
    'gen --delta 5 --K 2 --size 12 --seed 1': (
        'f28252eee9e7bc17b6a3e8760da6c48cf43218bfc80a4821817fcae22a8d2be2',
        '7b13929a2a6ae03b0b715e2a47da336b17b5885f8d85e78bffb13b0c9ac62473'),
    'gen --delta 5 --K 2 --size 12 --seed 2': (
        '72a832421f7136286e78b95ccfbf48d8c215879919cb0ae623cd99f9d33265cf',
        'a700d207943e75b217ba2d29ed6cf5f3e525741e8f3cc0dc92cf813d27535efc'),
    'gen --delta 5 --K 2 --size 12 --seed 3': (
        '8d3cea64566044616b46e56d93348c00bde4353f05abea21036aed4dd1408bd7',
        '83dd2c72d73f590728b7d8879a7ce9e42884c764c2f1c990bdadaaf94f7cfa01'),
    'gen --delta 7 --K 3 --size 12 --seed 1': (
        'df55c4d4c72dbb8669efcb8f96e067a79b69111ccf28765909254ef911ea3a1d',
        '69809064749463e67bf5f2051648607d78b0df860b379fe66ab8392c7598fb28'),
    'gen --delta 7 --K 3 --size 12 --seed 2': (
        'b5b44d5c16023e68a87f557342626e34c8e3edc601097aa7022f727e802cbb37',
        'f4d8a98e813647246848aae4e967da84dac2ec75ef1ce4f0277e1fed403b4f2d'),
    'gen --delta 7 --K 3 --size 12 --seed 3': (
        '9a69631ab7b7bbf3853db495ca283e31f706326b8c00d0808b887984ac1002a2',
        '24bbaeafc3578b8b77caf013c630bbca13ef0372c3bd5547e5389c9d40f69d1b'),
    'search-witness bad-triangle.elg --bound 8': (
        '44854f3fdc90d83fb3c31acc0f17947f9bec9fe82631ea8332d65ac2e09eeae3',
        None),
    'search-witness bad-triangle.elg --bound 8 --pipeline': (
        '166f459c94133190864e549020e3fe1cede43a79d034d0b5f6d5e5353dbd74b9',
        None),
    'search-witness edge3.elg --bound 10': (
        'dedd345402e01481ba2c14558f0c3578c2373d6315a68241c776da4851248b89',
        'cfd97839930a12f35f2fdaa0f0b26deed6d0a811abfe0145790f92e62a166671'),
    'search-witness edge3.elg --bound 10 --pipeline': (
        '7c7127358903808b9e09a64fe3b60b219c8bdda3e593f82b732b7b160752dcb8',
        'cfd97839930a12f35f2fdaa0f0b26deed6d0a811abfe0145790f92e62a166671'),
    'search-witness edge3.elg --bound 8': (
        '2587887a69143460a9b57a87b2968cd183dcbf537ca9550e54e45287dfe675ca',
        'cfd97839930a12f35f2fdaa0f0b26deed6d0a811abfe0145790f92e62a166671'),
    'search-witness edge3.elg --bound 8 --pipeline': (
        'b9f45401a414e4f11782828967d002bab0be19f81b76d503464588acd7b9eea5',
        'cfd97839930a12f35f2fdaa0f0b26deed6d0a811abfe0145790f92e62a166671'),
    'search-witness nonmetric.elg --bound 8': (
        '6e0a8977accaaea6774faaca1599d8180d8821b7d1a2f160b830917d25a2e5b7',
        None),
    'search-witness nonmetric.elg --bound 8 --pipeline': (
        '6e0a8977accaaea6774faaca1599d8180d8821b7d1a2f160b830917d25a2e5b7',
        None),
    'search-witness pairs-44.elg --bound 10': (
        '0437085c03bff9ae9314227a6f0abf24d852841400fd9052888c3d1d0dee65b7',
        'a7c82238c6f41f6ef608e9ca0e87c764b3ce5162bbd5900ba8c03010a6fdc20f'),
    'search-witness pairs-44.elg --bound 10 --pipeline': (
        '04f7e52319395367d12170184961a77c8a9f4780468942a65455bca0f13e607f',
        '197c4ef37460baf8aad4d558c42db9c9b8ea2506cc7b234fc2f1c99a00d89022'),
    'search-witness pairs-44.elg --bound 8': (
        'b9f16badfc90d6173257b660bea9e83bf7f55ba355ee898a68930834d3875da8',
        'a7c82238c6f41f6ef608e9ca0e87c764b3ce5162bbd5900ba8c03010a6fdc20f'),
    'search-witness pairs-44.elg --bound 8 --pipeline': (
        '9081c9514b0c0b3773cffc231f1eb83dd4ef99c92be73fa5ffd3e67c62de8cf9',
        '197c4ef37460baf8aad4d558c42db9c9b8ea2506cc7b234fc2f1c99a00d89022'),
    'search-witness pairs-52.elg --bound 10': (
        'b6739a824267c583fff4fe929ebbf788a67b1bbdbaed3f8548a69c84f1666c03',
        '6071e55ed88179034927a0b4cd75d023cc193cc33d2a7691e22f9610001c656f'),
    'search-witness pairs-52.elg --bound 10 --pipeline': (
        'b1cbed03a90e0e3bdc6290bc49bfb52aac61eaf6f5832582de67a0a3d14afab7',
        'e7230201c6c756e23d1100e61d4937dc6124a9810b1b7c96573abcae854b71d1'),
    'search-witness pairs-52.elg --bound 8': (
        'fa107a5c0b74bd2a7f7aeb12e08977a50ca8b0c448a9733cfd22ee3ca390c878',
        '6071e55ed88179034927a0b4cd75d023cc193cc33d2a7691e22f9610001c656f'),
    'search-witness pairs-52.elg --bound 8 --pipeline': (
        'b4135dcf77a18d3e4d862e39d63e66078eac1025eaa97d28f5d49540e1b6158a',
        'e7230201c6c756e23d1100e61d4937dc6124a9810b1b7c96573abcae854b71d1'),
    'search-witness pairs-73.elg --bound 8': (
        '66535ae3aee0b8b57dacd60afb84fb8237b38dc3ea3bd5c692280c9d8fdf01ad',
        '4b032eb162d2ba52f0de343dc83101fa1355e000bed600f0876dbf6970997e5e'),
    'search-witness pairs-73.elg --bound 8 --pipeline': (
        '79e6d508cc47e1881c391c1fef67f6c632f65195bbd0c012772babdbc749f861',
        None),
    'search-witness partial-31.elg --bound 8': (
        '0fd22620830cde8cbda33df98fe4d22bc4089294095982df25bbe55f6925d862',
        None),
    'search-witness partial-31.elg --bound 8 --pipeline': (
        '19da5b1ae620aed7520171181b247f187de5c13abfa97c4b70cbb5d323be72f6',
        None),
    'search-witness partial-44.elg --bound 8': (
        '5b5e0ad9a50911529ef140128a094cc3fcf573a1a8b02a8572a49c9666d1b7ed',
        None),
    'search-witness partial-44.elg --bound 8 --pipeline': (
        'ce3a13702f2927c6d51589a2c5b034e73042787de11ceb298e64921839bb7338',
        None),
    'search-witness partial-52.elg --bound 8': (
        'c417cf3de702d079a4fcd39f1617540dfcb2ee9c9783dd6cf343193e714794fb',
        None),
    'search-witness partial-52.elg --bound 8 --pipeline': (
        '6c30fb952a46a1d6e51bcc5d61660bc0c5363b866b2017a141157bf8c8433f6a',
        None),
    'search-witness path22.elg --bound 8': (
        '870e2ec34e25c3d1276d4daab6f5a6d3b905ccb8127d57887f6333bcd95d292f',
        None),
    'search-witness path22.elg --bound 8 --pipeline': (
        '870e2ec34e25c3d1276d4daab6f5a6d3b905ccb8127d57887f6333bcd95d292f',
        None),
    'search-witness quad-expansion.elg --bound 8': (
        '84d947f10826824bc1e9062fc7110a007307c39995ecbc209ddde29b0b614ce1',
        'f56166f7e629030a10f55d552adb2ba7b7c430c53fad64d431e2ce17d7bb25f1'),
    'search-witness quad-expansion.elg --bound 8 --pipeline': (
        '3fd65b55ee987bc5ab0601e47082383b9d9085d489b40e6683ec2d9c19ddfe78',
        'efae84cf9b4778335ab4c4af08e60f584c94345b0f37552e1e7a0bd361dc054b'),
    'search-witness quadruple.elg --bound 10': (
        '18f969731e92a9b29ab6ec780395fac05df21365e7293c5223e711a61c11be89',
        'f56166f7e629030a10f55d552adb2ba7b7c430c53fad64d431e2ce17d7bb25f1'),
    'search-witness quadruple.elg --bound 10 --pipeline': (
        '67c2d2317bfde7abdd9f82475c7d09341687f318f2c053153ec2e927d9fa79f7',
        'efae84cf9b4778335ab4c4af08e60f584c94345b0f37552e1e7a0bd361dc054b'),
    'search-witness quadruple.elg --bound 8': (
        '44600df965dd950b11efb474ccd836de08017fce357ebca2ebe14fdfaa9eff09',
        'f56166f7e629030a10f55d552adb2ba7b7c430c53fad64d431e2ce17d7bb25f1'),
    'search-witness quadruple.elg --bound 8 --pipeline': (
        '25713775ab55f2ddefa5ef686aba574de1e0797ff48698a6daa26545387832df',
        'efae84cf9b4778335ab4c4af08e60f584c94345b0f37552e1e7a0bd361dc054b'),
    'search-witness two-edges-f.elg --bound 8': (
        '75cf20183d32a6ef19cff05ef9ea5c9f6e99923932c3d99132f4b357f9c0686c',
        None),
    'search-witness two-edges-f.elg --bound 8 --pipeline': (
        '75cf20183d32a6ef19cff05ef9ea5c9f6e99923932c3d99132f4b357f9c0686c',
        None),
    'search-witness witness-31.elg --bound 8': (
        'f482b88fe604407398336ad1dc4249043c00bc65d9459fee4f1b8eead09d5f23',
        'efae84cf9b4778335ab4c4af08e60f584c94345b0f37552e1e7a0bd361dc054b'),
    'search-witness witness-31.elg --bound 8 --pipeline': (
        'd3d44303a98689bc3a2e912f689f50e33d35e4d7e219a96c8a9e1a2e609a028c',
        None),
    'unfold bad-triangle.elg': (
        'df9c1595532636dca6b9764d0f3065b565c4eaca5efd9e9485a90463e3a75905',
        None),
    'unfold edge3.elg': (
        '4e83df6e705c882a11f2a9cc8cdb7fa0c4722e7ef8a0714621f3518547747796',
        None),
    'unfold nonmetric.elg': (
        'd5cc6df43f0ff8dc61e558dd541d542eb1833116512c994a546ca954aecf7b06',
        None),
    'unfold pairs-44.elg': (
        '176ba58f7a9d48ccd71bb222f7cb7a8de4187def848790ce8a24a5785d5843dd',
        None),
    'unfold pairs-52.elg': (
        '832eb517b0713afc32d50b59e0c8d71b7e2698ec2f3be50f4a648c45cc52b0fd',
        None),
    'unfold pairs-73.elg': (
        '013dacb6849dd4f12aa83d573f8cd6ad0d134e148bf0ea25d1af6d5e77d2740b',
        None),
    'unfold partial-31.elg': (
        '38e8428b6749555ca6d6105e248c3ccec4ddf4e5d2374ef566afd19ed4c3dd68',
        None),
    'unfold partial-44.elg': (
        'ac38f658801b2d62831a08a643335a1d77aa30f00d1349b3e396e8f515b5ade7',
        None),
    'unfold partial-52.elg': (
        '2ac3f92581c7fa2678932904815f8dce76dfaaf39080abc595027804c4183cc3',
        None),
    'unfold path22.elg': (
        '61c5f60e66dfac1d9dae7c93e381c87e7ecdc1d65d191a21ddbaa25b994982f4',
        None),
    'unfold quad-expansion.elg': (
        'a48f80c0ac3d2375708bbb0594e5e4142c8471ae1bdc927fd774e6272aae2e35',
        None),
    'unfold quadruple.elg': (
        'ad493befcb70ce45abf59c939996d7371ce4ad6054db3c132a5912da4993dee1',
        None),
    'unfold two-edges-f.elg': (
        'f7af585c9c3174f6d7f7eef5513071be2c3cd7eefd48c9a23b5f892ef5d7bfe8',
        None),
    'unfold witness-31.elg': (
        '3fa3cdec6ead61077226e0c4d01c38f58d0c9e5bb7e859aa4c226414e316f11c',
        None),
    'validate bad-triangle.elg': (
        '1e5c0eb48e132e1f95ac736bff068ab6a1cedcdb722f9da606f2624fd1952b4b',
        None),
    'validate edge3.elg': (
        '5cb2078178e890fcab13a200623595fdc26711298ff46bd3d3349d9eb56d8668',
        None),
    'validate nonmetric.elg': (
        '9dcfa72bb388b5200c7c8e617a118e432944907f082b441274b70a8011d3f4e9',
        None),
    'validate pairs-44.elg': (
        '693c9f836348b73c5ab62d2e6284e8a907922157e7635732c80c32e5d86df9dc',
        None),
    'validate pairs-52.elg': (
        'f2622d3e4d891a19dc26b3d5b061675723996ef26d3257c0e8c9d371fdf239f5',
        None),
    'validate pairs-73.elg': (
        '9cc3b41ed3de60950a14b6cf25e135cefe8b7e5ffbca8a67dd3ed2db842d9a01',
        None),
    'validate partial-31.elg': (
        'a7634d2f2b6e8d9f5e67d6da89e3cdf384cda4578ef55e07988ef7226dafdc2c',
        None),
    'validate partial-44.elg': (
        'dfa21232d50e61363614e004a3226dcdaa27ca38434ad9fd851de5ea59ada0cc',
        None),
    'validate partial-52.elg': (
        'ef2c1d60306700ef8099234ee7b83742ddeded37181d18f8774c394c4c0e5390',
        None),
    'validate path22.elg': (
        'e5a96d12b9fb73a79b80a2fe47e3d41b2a51e0bb13ec6a95054f9592feb83b40',
        None),
    'validate quad-expansion.elg': (
        '1baca56225f335ebd3c9e20f072581bdab7dbb43774a01e71a6a3d13a7c4a2cb',
        None),
    'validate quadruple.elg': (
        '544d78d2ed21c8c04088d1a927d79b266df2d8dbf9e67b3a0db4b45979f39b59',
        None),
    'validate two-edges-f.elg': (
        '90c24d97126470671d8191c56a9e0215d29810011061a00e48a4687a588d6938',
        None),
    'validate witness-31.elg': (
        'd7cbfec567b5fe7d83dc3b1c11e9b483ea1161e45d3a90d48fe847984ff26c39',
        None),
    'verify-witness --mode gamma bad-triangle.elg quad-expansion.elg': (
        'efaca4273f7a1e7dece28cb2293e47d4d7a4b6ba25ad10f44ed9382f656dbdd2',
        None),
    'verify-witness --mode gamma edge3.elg quad-expansion.elg': (
        '7727c4d8d2d3e20a8c9c3535c0bfa51958f6fc3c4acb7aafa8e4f1ef7458dfa7',
        None),
    'verify-witness --mode gamma nonmetric.elg quad-expansion.elg': (
        'ad9aedf5854492700c5fd04b3cb81b69ad23fc3f52f2823df061dfd0de711693',
        None),
    'verify-witness --mode gamma pairs-44.elg quad-expansion.elg': (
        '43c7129ce269ce28b18a034b8c9e2c1806fb4600923f80a8372b15e521a6d8bf',
        None),
    'verify-witness --mode gamma pairs-52.elg quad-expansion.elg': (
        '53812491d2fd7fcf030c8753c32a7d651726bed7971fa527594ab4be9d4fb799',
        None),
    'verify-witness --mode gamma pairs-73.elg quad-expansion.elg': (
        'ce9b16928e9ca1b0c44c83d1e134805a4d30eb3b9b69ccb34a21495abb38892d',
        None),
    'verify-witness --mode gamma partial-31.elg quad-expansion.elg': (
        '0b21300c4ccbbfb5c8bfd02794a7c8c82ca960c1e5a39909b22ce49c8722e17b',
        None),
    'verify-witness --mode gamma partial-44.elg quad-expansion.elg': (
        '60cac52a6a3c87f861a34ccefeb921795ddcde9be006c69c175346284dcc0130',
        None),
    'verify-witness --mode gamma partial-52.elg quad-expansion.elg': (
        '07e3d51b96569cddd7a9718c00f8502057a68e4e0cfc08360325c2b727e7362d',
        None),
    'verify-witness --mode gamma path22.elg quad-expansion.elg': (
        'a60e069ef146eceef383777804acb8d878194eba9cb4b38ad2def52b2280aedb',
        None),
    'verify-witness --mode gamma quad-expansion.elg bad-triangle.elg': (
        'e531c11f8b347bebfd30f5f866f7359bcdb5a7a0b01d6ad1973330f728b69368',
        None),
    'verify-witness --mode gamma quad-expansion.elg edge3.elg': (
        '7d9743d8eaf8c192bfa3583f0333e90afd447c94929b00c9ab59550bee58867c',
        None),
    'verify-witness --mode gamma quad-expansion.elg nonmetric.elg': (
        '8565cb0152814d57614818a768510f885fc9a185e5b55122e65e4daa2ace490e',
        None),
    'verify-witness --mode gamma quad-expansion.elg pairs-44.elg': (
        '7b068dfac4826a4a5776c36660d66c5fe7fb02acf9941394e7e26c374298a518',
        None),
    'verify-witness --mode gamma quad-expansion.elg pairs-52.elg': (
        '14d3739b0156cde96760e8ae8f694e95548717ed6c7f14b86abd9bd43c420b84',
        None),
    'verify-witness --mode gamma quad-expansion.elg pairs-73.elg': (
        '6efe54d9d7926e9e44ebc3f2eee09904356d806c19b5b73f4d3c911c6ec6945a',
        None),
    'verify-witness --mode gamma quad-expansion.elg partial-31.elg': (
        '494ea52cc694841a70fcafbb442d6f6a7666687343c7a4d74e3a58da3826c7a0',
        None),
    'verify-witness --mode gamma quad-expansion.elg partial-44.elg': (
        '36482d2cc4cc8f7161a5f420bd4e67dee8537d2b09c7b67005a1b22a665c8f7a',
        None),
    'verify-witness --mode gamma quad-expansion.elg partial-52.elg': (
        'afe0361fff70cdc8ce1cd238e08d483c34d127c35e0bccf1977a3f2b22e4ac5c',
        None),
    'verify-witness --mode gamma quad-expansion.elg path22.elg': (
        'a850d8e52d51eff42b20a29f323145345a38ab6bf204af93acf78034ab0bff73',
        None),
    'verify-witness --mode gamma quad-expansion.elg quad-expansion.elg': (
        '45dd196ae9c6ff7d060c9ab26fb4c4f1c8ef34c75d5acae3c0fcfb312ea18254',
        None),
    'verify-witness --mode gamma quad-expansion.elg quadruple.elg': (
        '7a514f82c0527a0f18174be0d7de5a4894a8fe233cdd22b8c0aa26a1b32849b8',
        None),
    'verify-witness --mode gamma quad-expansion.elg two-edges-f.elg': (
        '03da366a18b4cefb722256878256971e935754988a15c0d7183a08e0180a965b',
        None),
    'verify-witness --mode gamma quad-expansion.elg witness-31.elg': (
        '6ca16e61700dd000bc37e419bff6704c569f13f1097218f4fa3f2fbcf3b77eda',
        None),
    'verify-witness --mode gamma quadruple.elg quad-expansion.elg': (
        '69666c240e8346d97a34953f08e267b5fde4ae918d4aded462f8fa53ada22603',
        None),
    'verify-witness --mode gamma two-edges-f.elg quad-expansion.elg': (
        '886854a344f37244f13d515e4d07befa19c39ffb5f163e297760ffe5af6a2799',
        None),
    'verify-witness --mode gamma witness-31.elg quad-expansion.elg': (
        '495dbc619a0124184ea06d842e69e45c98e10277badf7ff396bc9be28d888a79',
        None),
    'verify-witness bad-triangle.elg quadruple.elg': (
        '119eea01e774d725455480d05362189864cb47cc798a11d22e2287c93e53a2e8',
        None),
    'verify-witness edge3.elg bad-triangle.elg': (
        'e897246b1818579aa5261777e9dd647f577c35dd321ecd5960f5decccb1ba513',
        None),
    'verify-witness edge3.elg edge3.elg': (
        '0c0f37f4fdcf39a662e5adf8b9a24b29897381b96445da2b1bddd5c54eacfe9c',
        None),
    'verify-witness edge3.elg nonmetric.elg': (
        'f0fa495c11888804d4a0db1005e95e815600ff67d6ec663c9f58e069f8c0c71b',
        None),
    'verify-witness edge3.elg pairs-44.elg': (
        'a647b114a92f3896ae1e5cd4bb363eebaaf3936be7986a2934c8367da8479789',
        None),
    'verify-witness edge3.elg pairs-52.elg': (
        'c8deaaa80cc4f89a8bc3cb9e6bcbf54ef6cf27e7fc1f7cb35635ff26b2754e35',
        None),
    'verify-witness edge3.elg pairs-73.elg': (
        'e83a8a2753fd0cdb821aebede059ed650a7e71c20ecda1fc09caeda0ff4e3ff0',
        None),
    'verify-witness edge3.elg partial-31.elg': (
        'e9ce91862223bf68dcc42ad6fff6b79150a9f2c5198040447375e98c4d41124b',
        None),
    'verify-witness edge3.elg partial-44.elg': (
        '399af634439bc1231e5b730a7db5c0109cdf40bf86637ee82fb33355397b862e',
        None),
    'verify-witness edge3.elg partial-52.elg': (
        '2328e33fce95f1757dc3e019eb7626a38e530ce8557e8541d81ad6b44114b4b9',
        None),
    'verify-witness edge3.elg path22.elg': (
        '7ff20a4ddd7188d1dc066ac5f35c3a5d6a60e7003114e15dd37be271bf3804e5',
        None),
    'verify-witness edge3.elg quad-expansion.elg': (
        'c04ccba25d892f854aa8d4c868c3b020e1c53ef6349f50e60adaf6d57c0e5994',
        None),
    'verify-witness edge3.elg quadruple.elg': (
        '67173f082b7dc97d7452f2066aa70d959800d397d89b010e276afab6bbcb9162',
        None),
    'verify-witness edge3.elg two-edges-f.elg': (
        '2405a0a78e22adc776b246f36ecd11b851264d9bb4ee963643dca9b92b9243a9',
        None),
    'verify-witness edge3.elg witness-31.elg': (
        '6099ca0240d54a2de966214c08dcd496c8c8e81fff984186a203f34ec9a46fe4',
        None),
    'verify-witness nonmetric.elg quadruple.elg': (
        '28c4007db257ae0520bc55024709400789e305311217720268d5736cd235aa46',
        None),
    'verify-witness pairs-44.elg quadruple.elg': (
        '8c279c07a6d4ccfd1b0b58d2e6dbb3c192fb5087554e1c37ad114356f1ee693b',
        None),
    'verify-witness pairs-52.elg quadruple.elg': (
        'bfda0cffa0c191140202b19fcf920fcabc4dff6116f7cfed108702a7a14707de',
        None),
    'verify-witness pairs-73.elg quadruple.elg': (
        'e029702a2d6bc99c5ec5c57bfca12d4a7ee888085637a3cdab7a2168bf693e78',
        None),
    'verify-witness partial-31.elg quadruple.elg': (
        '1ad15afa2db097bbe5d36f2ce9620da87e4c8ea91a71b4b95d72c012b6c9c28d',
        None),
    'verify-witness partial-44.elg quadruple.elg': (
        'e1e8e8f05ab536603ca81b485fb69575beb48e1a7fd93ee40120e70cb0d109ba',
        None),
    'verify-witness partial-52.elg quadruple.elg': (
        '629ebef22344b9463f01de1db391e72b544ad82cc1914c310325a58dc5a24d41',
        None),
    'verify-witness path22.elg quadruple.elg': (
        '628207882951ccca7e74fee92b4f93a2522771a81b5aae9732153b43d3aac50f',
        None),
    'verify-witness quad-expansion.elg quadruple.elg': (
        '03cd6781b3456450d5fdbc8e16351dd06cbc63528418b72f937464a2b232cc8d',
        None),
    'verify-witness quadruple.elg quadruple.elg': (
        '996006a4bdcb46e3f88339b4b0927a8b888aa4431e00eb721f7416b8a5f24e79',
        None),
    'verify-witness two-edges-f.elg quadruple.elg': (
        'ee72e8fae685b3effa88bc21d7566e50dc631cc1308ae7507384f21cfd988b5a',
        None),
    'verify-witness witness-31.elg quadruple.elg': (
        'cdfc1d7e17c2d1b102e705fa57d9063a86133ec1f6d865a20058507155711cf5',
        None),
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_call(argv, writes_out, workdir: pathlib.Path):
    """Run one call inside ``workdir``; returns the two digests."""
    for path in INPUTS:
        shutil.copy(path, workdir / path.name)
    out_file = workdir / "out.elg"
    if out_file.exists():
        out_file.unlink()
    args = list(argv) + (["--out", "out.elg"] if writes_out else [])
    stream = io.StringIO()
    run(args, stdout=stream)
    out_digest = _sha(out_file.read_bytes()) if out_file.exists() else None
    return _sha(stream.getvalue().encode()), out_digest


def test_every_call_is_pinned():
    assert sorted(GOLDEN) == sorted(CALLS)


@pytest.mark.parametrize("call", sorted(CALLS))
def test_report_and_output_bytes(call, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    argv, writes_out = CALLS[call]
    assert run_call(argv, writes_out, tmp_path) == GOLDEN[call]
