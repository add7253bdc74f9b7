#!/usr/bin/env python3
"""Regenerates the JSON conformance corpus in this directory.

Naming follows the JSONTestSuite convention:
  y_*.json  must be accepted by both swapserve parsers (DOM, in-situ)
  n_*.json  must be rejected by both parsers
  i_*.json  implementation-defined: parsers need not accept, but both
            must agree (the conformance test pins the agreed verdict)

The corpus is checked in; rerun this script only when adding cases.
"""

import os

os.chdir(os.path.dirname(os.path.abspath(__file__)))

CASES_Y = {
    "y_array_empty": "[]",
    "y_array_nested": "[[[[]]]]",
    "y_array_mixed": '[1,"a",true,null,{"k":[2.5]}]',
    "y_array_whitespace": " [1, 2 ,3]\t\r\n",
    "y_number_zero": "0",
    "y_number_negative_zero": "-0",
    "y_number_int": "123",
    "y_number_negative_int": "-123",
    "y_number_real": "3.25",
    "y_number_exp": "1e3",
    "y_number_exp_upper": "1E+2",
    "y_number_exp_neg": "2e-3",
    "y_number_frac_exp": "1.5e10",
    "y_number_int64_18_digits": "999999999999999999",
    "y_number_huge": "1e308",
    "y_number_tiny": "1e-308",
    "y_number_zero_frac": "0.5",
    "y_string_empty": '""',
    "y_string_simple": '"hello world"',
    "y_string_escapes": '"\\" \\\\ \\/ \\b \\f \\n \\r \\t"',
    "y_string_unicode_2byte": '"\\u00e9"',
    "y_string_unicode_3byte": '"\\u20ac"',
    "y_string_surrogate_pair": '"\\ud83d\\ude00"',
    "y_string_nul_escape": '"\\u0000"',
    "y_string_utf8_raw": '"é€\U0001F600"',
    "y_object_empty": "{}",
    "y_object_simple": '{"a":1,"b":"two","c":[true,null]}',
    "y_object_duplicate_keys": '{"a":1,"a":2}',
    "y_object_nested": '{"o":{"o":{"o":{}}}}',
    "y_scalar_true": "true",
    "y_scalar_false": "false",
    "y_scalar_null": "null",
    "y_string_root": '"root"',
    "y_openai_chat": (
        '{"model":"llama-3.2-1b","messages":['
        '{"role":"user","content":"Explain \\"swap\\" in one line.\\n"},'
        '{"role":"assistant","content":[{"type":"text","text":"ok \\ud83d\\ude00"}]}'
        '],"max_tokens":128,"temperature":0.7,"stream":true,'
        '"user":"tenant-a","slo_class":"gold"}'
    ),
    # Depth margin: 256 open containers is exactly the documented limit.
    "y_structure_deep_256": "[" * 256 + "]" * 256,
}

CASES_N = {
    "n_empty": "",
    "n_whitespace_only": " \t\n",
    "n_array_unclosed": "[",
    "n_array_trailing_comma": "[1,]",
    "n_array_comma_only": "[,]",
    "n_array_missing_comma": "[1 2]",
    "n_array_close_mismatch": "[}",
    "n_object_unclosed": "{",
    "n_object_missing_colon": '{"a" 1}',
    "n_object_missing_value": '{"a":}',
    "n_object_trailing_comma": '{"a":1,}',
    "n_object_unquoted_key": "{a:1}",
    "n_object_single_quotes": "{'a':1}",
    "n_object_nonstring_key": '{1:2}',
    "n_string_unterminated": '"abc',
    "n_string_bad_escape": '"\\q"',
    "n_string_lone_surrogate_high": '"\\ud800"',
    "n_string_lone_surrogate_low": '"\\udc00"',
    "n_string_high_then_nonescape": '"\\ud800x"',
    "n_string_high_then_bad_low": '"\\ud800\\u0041"',
    "n_string_truncated_unicode": '"\\u12',
    "n_string_raw_control": '"a\tb"',  # literal tab inside a string
    "n_string_raw_newline": '"a\nb"',
    "n_number_leading_zero": "01",
    "n_number_leading_zeros": "007",
    "n_number_plus": "+1",
    "n_number_dot_lead": ".5",
    "n_number_dot_trail": "1.",
    "n_number_exp_empty": "1e",
    "n_number_exp_sign_only": "1e+",
    "n_number_hex": "0x1",
    "n_number_infinity": "Infinity",
    "n_number_nan": "NaN",
    "n_number_minus_only": "-",
    "n_literal_true_trunc": "tru",
    "n_literal_caps": "TRUE",
    "n_trailing_content": "{} {}",
    "n_trailing_garbage": "1 2",
    "n_bare_word": "hello",
    # Depth margin: well beyond the 256-container limit.
    "n_structure_deep_300": "[" * 300 + "]" * 300,
}

CASES_I = {
    # Overflows double: RFC 8259 allows implementation limits; swapserve
    # rejects (DecodeNumber refuses infinities). All parsers must agree.
    "i_number_overflow_1e309": "1e309",
    "i_number_overflow_neg": "-1e309",
    # Underflows to 0.0: accepted.
    "i_number_underflow": "1e-400",
    # 19 digits exceed the int64 fast path; decoded as double, accepted.
    "i_number_int64_19_digits": "9999999999999999999",
}

# Invalid UTF-8 byte in a string: swapserve passes raw bytes through.
# Written in binary so the 0xFF byte stays a lone invalid byte.
CASES_I_BINARY = {
    "i_string_invalid_utf8": b'"\xff"',
}

for name, content in {**CASES_Y, **CASES_N, **CASES_I}.items():
    with open(name + ".json", "w", encoding="utf-8", newline="") as f:
        f.write(content)
for name, blob in CASES_I_BINARY.items():
    with open(name + ".json", "wb") as f:
        f.write(blob)

print(
    f"wrote {len(CASES_Y)} y_, {len(CASES_N)} n_, "
    f"{len(CASES_I) + len(CASES_I_BINARY)} i_ cases"
)
